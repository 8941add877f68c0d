(* pbtool — the benchmark's helper executable.

     pbtool catalogue
         print the shape catalogue (the committed perfbench/shapes.txt)
     pbtool gen    --workload W --seed N --seconds S --dir D
         write D/graph.txt, D/constraints.txt and D/stream.jsonl; prints
         a JSON summary
     pbtool load   --socket PATH --dir D --closed-seconds S
         replay D/stream.jsonl against a running `bpq serve`, writing
         D/results.tsv and D/replies.txt
     pbtool oracle --dir D --snapshot FILE [--no-costs] [--mutate]
         check every answer against an in-process reference; prints a
         JSON verdict.  --mutate corrupts one served answer first (the
         self-test that the oracle rejects a wrong answer). *)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and dir = ref "." in
  let socket = ref "" and closed_seconds = ref 4.0 and snapshot = ref "" in
  let no_costs = ref false and mutate = ref false in
  let specs =
    [ ("--workload", Arg.Set_string workload, "W");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--dir", Arg.Set_string dir, "D");
      ("--socket", Arg.Set_string socket, "PATH");
      ("--closed-seconds", Arg.Set_float closed_seconds, "S");
      ("--snapshot", Arg.Set_string snapshot, "FILE");
      ("--no-costs", Arg.Set no_costs, "");
      ("--mutate", Arg.Set mutate, "") ]
  in
  Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) "pbtool";
  match cmd with
  | "gen" ->
    let w = Inputs.workload_of_string !workload in
    print_endline
      (Bpq_util.Jsonx.to_string
         (Inputs.generate w ~seed:!seed ~seconds:!seconds !dir))
  | "catalogue" -> print_string (Inputs.catalogue ())
  | "load" ->
    let ops = Inputs.read_stream (Filename.concat !dir "stream.jsonl") in
    Loadgen.run ~sock:!socket ~ops ~closed_seconds:!closed_seconds ~out_dir:!dir
  | "oracle" ->
    let mutate =
      if not !mutate then None
      else
        Some
          (fun (replies : string array) ->
            (* Drop the first match of the first non-empty served answer. *)
            let rec go i =
              if i < Array.length replies then
                match Bpq_util.Jsonx.parse replies.(i) with
                | Ok (Bpq_util.Jsonx.Obj fields) when
                    (match List.assoc_opt "matches" fields with
                     | Some (Bpq_util.Jsonx.Arr (_ :: _)) -> true
                     | _ -> false) ->
                  let fields =
                    List.map
                      (function
                        | "matches", Bpq_util.Jsonx.Arr l ->
                          ("matches", Bpq_util.Jsonx.Arr (List.tl l))
                        | f -> f)
                      fields
                  in
                  replies.(i) <- Bpq_util.Jsonx.to_string (Bpq_util.Jsonx.Obj fields)
                | _ -> go (i + 1)
            in
            go 0)
    in
    let v = Oracle.check ~dir:!dir ~snapshot:!snapshot ~with_costs:(not !no_costs) ?mutate () in
    print_endline (Bpq_util.Jsonx.to_string (Oracle.verdict_json v))
  | _ ->
    prerr_endline "usage: pbtool (gen|load|oracle) ...";
    exit 2
