(* Seeded inputs for every workload: the data graph, its access schema
   and the request stream.  Everything here is a pure function of
   (workload, seed, seconds) so that the same seed reproduces the same
   bytes; nothing depends on the speed of the code under test. *)

open Bpq_util
open Bpq_graph
open Bpq_pattern
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload
module Json = Jsonx
module Wal = Bpq_store.Wal

type workload = Hot_repeat | Cold_distinct | Write_mix | Sharded_pushdown

let workload_of_string = function
  | "hot-repeat" -> Hot_repeat
  | "cold-distinct" -> Cold_distinct
  | "write-mix" -> Write_mix
  | "sharded-pushdown" -> Sharded_pushdown
  | s -> failwith (Printf.sprintf "unknown workload %S" s)

(* Fixed per-workload constants.  Rates are never calibrated against the
   server: the offered load must not depend on the code being measured. *)
type spec = {
  scale : float;  (* Generators.imdb_like scale *)
  open_rate : float;  (* open-loop reads per second (Poisson) *)
  open_frac : float;  (* share of --seconds spent in the open-loop phase *)
  write_every_s : float;  (* periodic write batch interval (0 = no writes) *)
  write_batch : int;  (* delta ops per write batch *)
  compact_every : int;  (* a compact op after every K write batches *)
  closed_write_every : int;  (* closed loop: a write every N ops on conn 0 *)
  trace_reads : int;  (* requests replayed by the traced run *)
}

let spec = function
  | Hot_repeat ->
    { scale = 0.05; open_rate = 600.0; open_frac = 0.6; write_every_s = 0.0;
      write_batch = 0; compact_every = 0; closed_write_every = 0; trace_reads = 2000 }
  | Cold_distinct ->
    { scale = 0.05; open_rate = 60.0; open_frac = 0.7; write_every_s = 0.0;
      write_batch = 0; compact_every = 0; closed_write_every = 0; trace_reads = 400 }
  | Write_mix ->
    { scale = 0.02; open_rate = 50.0; open_frac = 0.7; write_every_s = 0.1;
      write_batch = 8; compact_every = 50; closed_write_every = 8; trace_reads = 400 }
  | Sharded_pushdown ->
    { scale = 0.05; open_rate = 45.0; open_frac = 0.7; write_every_s = 0.0;
      write_batch = 0; compact_every = 0; closed_write_every = 0; trace_reads = 300 }

(* The data: the IMDb-like generator with the paper's schema A0 plus
   discovered degree bounds, exactly as Workload.imdb assembles it. *)
let dataset ~seed ~scale =
  let tbl = Label.create_table () in
  let g = Generators.imdb_like ~seed ~scale tbl in
  let constrs = W.a0 tbl @ Discovery.discover ~max_bound:60 g in
  (tbl, g, constrs)

(* ------------------------------------------------------------------ *)
(* Query shapes                                                        *)
(* ------------------------------------------------------------------ *)

(* A shape is a pattern skeleton (labels + edges); requests instantiate
   it with constants.  Shape 0 is always the paper's template t0. *)
type shape = { labels : Label.t array; edges : (int * int) list }

let shape_of_pattern q =
  { labels = Array.init (Pattern.n_nodes q) (Pattern.label q); edges = Pattern.edges q }

(* Candidate shapes for the catalogue: Qgen shapes (#n in [3,7]) that
   are connected, effectively bounded under [constrs] with a worst-case
   |G_Q| of at most [max_nodes] nodes, and not renumbered isomorphs of an
   earlier shape or of t0 (an isomorph would borrow the other's cached
   plan and could enumerate matches in another order). *)
let qgen_candidates rng tbl g constrs ~max_nodes =
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen (Pattern.fingerprint (Template.skeleton (W.t0 tbl))) ();
  Seq.forever (fun () -> Qgen.from_walk rng g)
  |> Seq.take 4000
  |> Seq.filter_map (fun q ->
         let skel =
           Pattern.create tbl
             (Array.init (Pattern.n_nodes q) (fun u -> (Pattern.label q u, Predicate.true_)))
             (Pattern.edges q)
         in
         let fp = Pattern.fingerprint skel in
         let ok =
           Pattern.is_connected skel
           && (not (Hashtbl.mem seen fp))
           &&
           match Qplan.generate Actualized.Subgraph skel constrs with
           | Some plan -> Plan.node_bound plan <= max_nodes
           | None -> false
         in
         if ok then begin
           Hashtbl.replace seen fp ();
           Some skel
         end
         else None)

(* Values present in the graph per label, for drawing fresh constants. *)
let values_by_label g =
  let tbl = Hashtbl.create 16 in
  Digraph.iter_nodes g (fun v ->
      match Digraph.value g v with
      | Value.Null -> ()
      | x ->
        let l = Digraph.label g v in
        Hashtbl.replace tbl l (x :: Option.value (Hashtbl.find_opt tbl l) ~default:[]));
  let out = Hashtbl.create 16 in
  Hashtbl.iter (fun l vs -> Hashtbl.replace out l (Array.of_list (List.sort_uniq compare vs))) tbl;
  out

let atom_for rng = function
  | Value.Int i ->
    (match Prng.int rng 3 with
     | 0 -> Predicate.atom Value.Eq (Value.Int i)
     | 1 -> Predicate.atom Value.Ge (Value.Int (i - Prng.int rng 4))
     | _ -> Predicate.atom Value.Le (Value.Int (i + Prng.int rng 4)))
  | v -> Predicate.atom Value.Eq v

(* One instantiation of a Qgen shape: each node draws an atom from a
   value its label carries, with probability one half. *)
let instantiate_shape rng tbl vals s =
  let preds =
    Array.map
      (fun l ->
        match Hashtbl.find_opt vals l with
        | Some vs when Prng.bool rng -> atom_for rng (Prng.pick rng vs)
        | _ -> Predicate.true_)
      s.labels
  in
  Pattern.create tbl (Array.mapi (fun u l -> (l, preds.(u))) s.labels) s.edges

(* The shape catalogue (perfbench/shapes.txt), built once from a graph
   of a fixed seed and committed, so every run seed draws the same
   shapes and the stream's cost profile does not drift with the seed.
   A candidate joins if its constants admit at least 5000 distinct
   instantiations and 30 sampled instantiations all stay light:
   realised counts on the in-memory schema, never timings.  Unlucky
   instantiations of star-shaped skeletons reach millions of matches;
   this benchmark serves many light queries, not bulk exports. *)
let catalogue () =
  let tbl, g, constrs = dataset ~seed:0 ~scale:0.05 in
  let src = Exec.source_of_schema (Schema.build g constrs) in
  let vals = values_by_label g in
  let rng = Prng.create 4242 in
  let light skel =
    let s = shape_of_pattern skel in
    List.for_all
      (fun _ ->
        let q = instantiate_shape rng tbl vals s in
        let plan = Qplan.generate_exn Actualized.Subgraph q constrs in
        let ms, st = Bounded_eval.matches_with ~limit:2001 src plan in
        List.length ms <= 2000 && Exec.accessed st <= 8_000)
      (List.init 30 Fun.id)
  in
  (* Enough distinct instantiations that no run exhausts a shape. *)
  let roomy skel =
    let s = shape_of_pattern skel in
    Array.fold_left
      (fun acc l ->
        match Hashtbl.find_opt vals l with
        | Some vs -> acc *. (1.0 +. float_of_int (Array.length vs))
        | None -> acc)
      1.0 s.labels
    >= 5_000.0
  in
  qgen_candidates rng tbl g constrs ~max_nodes:40_000
  |> Seq.filter roomy
  |> Seq.filter light
  |> Seq.take 10
  |> Seq.map Pattern_parser.to_source
  |> List.of_seq
  |> String.concat "--\n"

(* The catalogue's shapes, in the run's label table; shapes that are not
   effectively bounded under this run's schema are dropped. *)
let load_shapes path tbl constrs =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let blocks =
    List.fold_left
      (fun acc l -> match acc with
         | cur :: rest -> if l = "--" then [] :: acc else (l :: cur) :: rest
         | [] -> [ [ l ] ])
      [ [] ] lines
    |> List.rev_map (fun b -> String.concat "\n" (List.rev b))
    |> List.filter (fun b -> String.trim b <> "")
  in
  List.filter_map
    (fun b ->
      let q = Pattern_parser.parse_string tbl b in
      match Qplan.generate Actualized.Subgraph q constrs with
      | Some _ -> Some (shape_of_pattern q)
      | None -> None)
    blocks

(* t0 over the year window [lo, lo + width]. *)
let t0_window tbl lo width =
  Template.instantiate (W.t0 tbl) [ ("lo", Value.Int lo); ("hi", Value.Int (lo + width)) ]

(* ------------------------------------------------------------------ *)
(* Request streams                                                     *)
(* ------------------------------------------------------------------ *)

type kind = Read | Write | Compact

type op = {
  phase : string;  (* "warm" | "open" | "closed" *)
  at : float;  (* open loop: scheduled send, seconds from phase start *)
  conn : int;  (* closed loop and writes: the connection that sends it *)
  kind : kind;
  shape : int;  (* reads: shape index; -1 otherwise *)
  req : Json.t;
}

let kind_name = function Read -> "read" | Write -> "write" | Compact -> "compact"

let query_req q = Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str (Pattern_parser.to_source q)) ]

(* A source of distinct read requests.  Shapes are dealt from a shuffled
   deck of twenty — one t0 window, nineteen catalogue shapes in turn —
   so every stretch of the stream has the same mix, whatever the seed;
   constants are fresh, and no request text is ever sent twice. *)
let distinct_reads rng tbl g shapes =
  let vals = values_by_label g in
  let seen = Hashtbl.create 4096 in
  let n = Array.length shapes in
  let deck = Array.init 20 (fun i -> if i = 0 || n = 0 then 0 else 1 + (i mod n)) in
  let dealt = ref (Array.length deck) in
  let rec draw shape tries =
    if tries = 0 then failwith "request space exhausted";
    let q =
      if shape = 0 then t0_window tbl (1880 + Prng.int rng 135) (Prng.int rng 4)
      else instantiate_shape rng tbl vals shapes.(shape - 1)
    in
    let r = query_req q in
    let text = Json.to_string r in
    if Hashtbl.mem seen text then draw shape (tries - 1)
    else begin
      Hashtbl.replace seen text ();
      (shape, r)
    end
  in
  fun () ->
    if !dealt = Array.length deck then begin
      Prng.shuffle rng deck;
      dealt := 0
    end;
    incr dealt;
    draw deck.(!dealt - 1) 1000

(* A hot set of t0 windows that fits the result tier many times over. *)
let hot_reads rng tbl =
  let los = Array.init 18 (fun i -> 1995 + i) in
  Prng.shuffle rng los;
  let hot = Array.init 6 (fun i -> query_req (t0_window tbl los.(i) 2)) in
  (hot, fun () -> (0, Prng.pick rng hot))

(* Valid random delta ops: node ids always reference existing nodes
   (base + appended so far), labels exist, tombstones target base edges. *)
let write_ops rng tbl g n_nodes k =
  let labels = Array.of_list (Label.all tbl) in
  List.init k (fun _ ->
      let pick () = Prng.int rng !n_nodes in
      match Prng.int rng 10 with
      | 0 | 1 ->
        let l = Prng.pick rng labels in
        incr n_nodes;
        Wal.Add_node { label = Label.name tbl l; value = Value.Int (Prng.int rng 100) }
      | 2 -> Wal.Set_value (pick (), Value.Int (Prng.int rng 1000))
      | 3 ->
        let u = Prng.int rng (Digraph.n_nodes g) in
        let out = Digraph.out_neighbours g u in
        if Array.length out > 0 then Wal.Remove_edge (u, out.(Prng.int rng (Array.length out)))
        else Wal.Add_edge (u, pick ())
      | _ -> Wal.Add_edge (pick (), pick ()))

let write_req ops = Json.Obj [ ("op", Json.Str "write"); ("ops", Json.Arr (List.map Wal.op_to_json ops)) ]
let compact_req = Json.Obj [ ("op", Json.Str "compact") ]

(* Generous closed-loop budgets: the phase ends at its deadline, or
   earlier if a list runs out. *)
let closed_budget = function
  | Hot_repeat -> 100_000
  | Cold_distinct | Write_mix -> 5_000
  | Sharded_pushdown -> 3_000

let warm_count = function Hot_repeat -> 0 | Cold_distinct | Write_mix -> 40 | Sharded_pushdown -> 30

(* The run's request list: a warm-up, an open-loop and a closed-loop
   phase; [seconds] is the measured time of the last two. *)
let stream w ~seed ~seconds ~shapes tbl g =
  let sp = spec w in
  let rng = Prng.create ((seed * 7919) + 17) in
  let open_s = seconds *. sp.open_frac in
  let hot, next_read =
    match w with
    | Hot_repeat -> hot_reads rng tbl
    | Cold_distinct | Write_mix | Sharded_pushdown -> ([||], distinct_reads rng tbl g shapes)
  in
  let read phase ?(at = 0.0) conn =
    let shape, req = next_read () in
    { phase; at; conn; kind = Read; shape; req }
  in
  (* Warm-up: hot-repeat sends each hot query four times, so both pool
     domains' result shards hold it; the distinct workloads send fresh
     requests so plans and pages are warm before timing. *)
  let warm =
    match w with
    | Hot_repeat ->
      List.concat
        (List.init 4 (fun r ->
             Array.to_list
               (Array.map
                  (fun req -> { phase = "warm"; at = 0.0; conn = r mod 2; kind = Read; shape = 0; req })
                  hot)))
    | _ -> List.init (warm_count w) (fun i -> read "warm" (i mod 2))
  in
  let n_nodes = ref (Digraph.n_nodes g) in
  (* Open loop: Poisson reads at the fixed rate, and periodic writes. *)
  let reads =
    let rec go t acc =
      let t = t +. (-.log (1.0 -. Prng.float rng 1.0) /. sp.open_rate) in
      if t >= open_s then List.rev acc else go t (read "open" ~at:t (-1) :: acc)
    in
    go 0.0 []
  in
  let writes =
    if sp.write_every_s <= 0.0 then []
    else
      List.concat
        (List.init (int_of_float (open_s /. sp.write_every_s)) (fun i ->
             let at = (sp.write_every_s *. float_of_int i) +. (sp.write_every_s /. 2.0) in
             let w =
               { phase = "open"; at; conn = 0; kind = Write; shape = -1;
                 req = write_req (write_ops rng tbl g n_nodes sp.write_batch) }
             in
             if (i + 1) mod sp.compact_every = 0 then
               [ w; { w with at = at +. 1e-6; kind = Compact; req = compact_req } ]
             else [ w ]))
  in
  let open_ops = List.stable_sort (fun a b -> compare a.at b.at) (reads @ writes) in
  (* Closed loop: each connection runs its own list; writes only on
     connection 0, so their application order is their send order. *)
  let closed =
    List.init (closed_budget w) (fun i ->
        let conn = i mod 2 in
        if sp.closed_write_every > 0 && conn = 0 && i / 2 mod sp.closed_write_every = 0 then
          { phase = "closed"; at = 0.0; conn; kind = Write; shape = -1;
            req = write_req (write_ops rng tbl g n_nodes sp.write_batch) }
        else read "closed" conn)
  in
  warm @ open_ops @ closed

let op_to_json o =
  Json.Obj
    [ ("phase", Json.Str o.phase);
      ("at", Json.Float o.at);
      ("conn", Json.Int o.conn);
      ("kind", Json.Str (kind_name o.kind));
      ("shape", Json.Int o.shape);
      ("req", o.req) ]

let op_of_json j =
  let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> failwith ("stream: " ^ k) in
  let int k = match Option.bind (Json.member k j) Json.to_int_opt with Some i -> i | None -> failwith ("stream: " ^ k) in
  { phase = str "phase";
    at = (match Option.bind (Json.member "at" j) Json.to_float_opt with Some f -> f | None -> 0.0);
    conn = int "conn";
    kind = (match str "kind" with "read" -> Read | "write" -> Write | "compact" -> Compact | k -> failwith ("stream kind " ^ k));
    shape = int "shape";
    req = (match Json.member "req" j with Some r -> r | None -> failwith "stream: req") }

let read_stream path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> Array.of_list (List.rev acc)
        | Some "" -> go acc
        | Some l ->
          (match Json.parse l with
           | Ok j -> go (op_of_json j :: acc)
           | Error e -> failwith ("stream: " ^ e))
      in
      go [])

(* The property later optimisations depend on: the share of reads that
   exactly repeat an earlier read of the run, and the distinct shapes. *)
let repeat_profile ops =
  let seen = Hashtbl.create 4096 and shapes = Hashtbl.create 16 in
  let reads = ref 0 and repeats = ref 0 in
  List.iter
    (fun o ->
      if o.kind = Read then begin
        incr reads;
        let text = Json.to_string o.req in
        if Hashtbl.mem seen text then incr repeats else Hashtbl.replace seen text ();
        Hashtbl.replace shapes o.shape ()
      end)
    ops;
  (float_of_int !repeats /. float_of_int (max 1 !reads), Hashtbl.length shapes)

let write_stream path ops =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun o -> output_string oc (Json.to_string (op_to_json o)); output_char oc '\n') ops)

(* The committed shape catalogue, relative to the checkout's root. *)
let shapes_path = "perfbench/shapes.txt"

(* Write graph, constraints and the request stream (D/stream.jsonl) into
   [dir]; returns a summary. *)
let generate w ~seed ~seconds dir =
  let sp = spec w in
  let tbl, g, constrs = dataset ~seed ~scale:sp.scale in
  let shapes = Array.of_list (load_shapes shapes_path tbl constrs) in
  Graph_io.save g (Filename.concat dir "graph.txt");
  Constr_io.save tbl constrs (Filename.concat dir "constraints.txt");
  let ops = stream w ~seed ~seconds ~shapes tbl g in
  write_stream (Filename.concat dir "stream.jsonl") ops;
  let repeat_frac, n_shapes = repeat_profile ops in
  Json.Obj
    [ ("nodes", Json.Int (Digraph.n_nodes g));
      ("edges", Json.Int (Digraph.n_edges g));
      ("open_s", Json.Float (seconds *. sp.open_frac));
      ("closed_s", Json.Float (seconds *. (1.0 -. sp.open_frac)));
      ("repeat_frac", Json.Float repeat_frac);
      ("shapes", Json.Int n_shapes);
      ("trace_reads", Json.Int sp.trace_reads) ]
