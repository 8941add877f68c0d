(* The correctness oracle, run after the timed phases.

   Every read answer (the reply's "matches" array and its count,
   re-encoded) is compared byte-for-byte with an in-process reference:
   the plan the server would generate for the request, evaluated by
   Bounded_eval.run on a mem store opened from the same snapshot, with
   no cache and no pool.

   With writes, the reference replays the acknowledged write batches
   into an overlay over that store, in their send order (all writes
   travel on one connection, so that is the order the server applied
   them).  A read may observe any state between the last write
   acknowledged before it was sent and the last write sent before its
   reply arrived; it passes if it equals the reference answer at one of
   them. *)

open Bpq_util
open Bpq_core
open Inputs
module Store = Bpq_store.Store
module Wal = Bpq_store.Wal
module Overlay = Bpq_store.Overlay

type row = {
  idx : int;
  kind : string;
  send_seq : int;
  recv_seq : int;
  status : string;
}

let read_results dir =
  In_channel.with_open_text (Filename.concat dir "results.tsv") (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some l ->
          (match String.split_on_char '\t' l with
           | [ i; _phase; kind; _conn; _at; _sent; _recv; ss; rs; status; _el ] ->
             go
               ({ idx = int_of_string i; kind; send_seq = int_of_string ss;
                  recv_seq = int_of_string rs; status }
               :: acc)
           | _ -> failwith ("results.tsv: malformed line " ^ l))
      in
      go [])

let read_replies dir n =
  let a = Array.make n "" in
  In_channel.with_open_text (Filename.concat dir "replies.txt") (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some l ->
          (match String.index_opt l '\t' with
           | Some k -> a.(int_of_string (String.sub l 0 k)) <- String.sub l (k + 1) (String.length l - k - 1)
           | None -> ());
          go ()
      in
      go ());
  a

(* An answer as the bytes a reply carries: the "matches" array and its
   count, in the server's encoding. *)
let answer_bytes matches n = Printf.sprintf "\"matches\":%s,\"n\":%s" matches n

let encode_matches ms =
  answer_bytes
    (Jsonx.to_string
       (Jsonx.Arr
          (List.map (fun m -> Jsonx.Arr (List.map (fun v -> Jsonx.Int v) (Array.to_list m))) ms)))
    (string_of_int (List.length ms))

(* The answer a served reply carries: its "matches" and "n" fields,
   re-encoded as [answer_bytes] lays them out. *)
let served_answer reply =
  match Jsonx.parse reply with
  | Ok j ->
    (match (Jsonx.member "matches" j, Jsonx.member "n" j) with
     | Some m, Some n -> Some (answer_bytes (Jsonx.to_string m) (Jsonx.to_string n))
     | _ -> None)
  | Error _ -> None

(* [with_costs]: the server plans with the snapshot's statistics except
   on the sharded backend, whose store carries none; the reference must
   plan the same way for match order to agree byte-for-byte. *)
let reference_eval ~with_costs store =
  let costs = if with_costs then Option.map Costs.make (Store.selectivity store) else None in
  fun src text ->
    let q = Bpq_pattern.Pattern_parser.parse_string src.Exec.table text in
    match Qplan.generate ?costs Actualized.Subgraph q src.Exec.constraints with
    | None -> "unbounded"
    | Some plan ->
      (match Bounded_eval.run src plan with
       | Bounded_eval.Matches ms -> encode_matches ms
       | Bounded_eval.Relation _ -> "relation")

type verdict = {
  checked : int;
  mismatches : int;
  failed : int;  (* error replies and lost requests *)
  attempted : int;
  examples : string list;
}

let pattern_text (o : Inputs.op) =
  match Jsonx.member "pattern" o.req with Some (Jsonx.Str s) -> s | _ -> ""

(* The reference sources of the run: the base generation, then the
   overlay after each acknowledged write, in application order. *)
let reference_states store ops writes =
  let base = Store.source store in
  let g = Bpq_access.Schema.graph (Option.get (Store.schema store)) in
  let apply ov (w : row) =
    let batch =
      match Jsonx.member "ops" ops.(w.idx).Inputs.req with
      | Some (Jsonx.Arr l) ->
        List.map (fun j -> match Wal.op_of_json j with Ok op -> op | Error e -> failwith e) l
      | _ -> failwith "oracle: write without ops"
    in
    match Overlay.apply ~base ov batch with
    | Ok ov -> ov
    | Error e -> failwith ("oracle: reference rejected an acknowledged write: " ^ e)
  in
  let ov0 = Overlay.empty ~base_n:(Bpq_graph.Digraph.n_nodes g) ~base_size:(Bpq_graph.Digraph.size g) () in
  let overlays = Array.make (Array.length writes) ov0 in
  Array.iteri (fun k w -> overlays.(k) <- apply (if k = 0 then ov0 else overlays.(k - 1)) w) writes;
  Array.append [| base |] (Array.map (fun ov -> Overlay.wrap ov base) overlays)

(* Check the run in [dir] against the snapshot the server started
   from.  Reference answers are evaluated on two domains; the sources
   are read-only, so evaluation order is free. *)
let check ~dir ~snapshot ~with_costs ?mutate () =
  let pool = Pool.create 2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let store = Store.open_snapshot ~backend:Store.Mem snapshot in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  let eval = reference_eval ~with_costs store in
  let ops = Inputs.read_stream (Filename.concat dir "stream.jsonl") in
  let rows = read_results dir in
  let replies = read_replies dir (Array.length ops) in
  Option.iter (fun f -> f replies) mutate;
  let writes =
    List.filter (fun r -> r.kind = "write" && r.status = "ok") rows
    |> List.sort (fun a b -> compare a.send_seq b.send_seq)
    |> Array.of_list
  in
  let states = reference_states store ops writes in
  let count_before seq f = Array.fold_left (fun acc w -> if f w < seq then acc + 1 else acc) 0 writes in
  let reads =
    List.filter (fun r -> r.status = "ok" && r.kind = "read") rows
    |> List.map (fun r ->
           ( r,
             pattern_text ops.(r.idx),
             count_before r.send_seq (fun w -> w.recv_seq),
             count_before r.recv_seq (fun w -> w.send_seq) ))
    |> Array.of_list
  in
  (* Each distinct (state, request) at its earliest admissible state
     first, in parallel; later states only for reads that raced a write
     and did not match. *)
  let distinct = Hashtbl.create 1024 in
  Array.iter
    (fun (_, text, lo, _) ->
      if not (Hashtbl.mem distinct (lo, text)) then
        Hashtbl.replace distinct (lo, text) (Hashtbl.length distinct))
    reads;
  let keys = Array.make (Hashtbl.length distinct) (0, "") in
  Hashtbl.iter (fun k i -> keys.(i) <- k) distinct;
  let answers = Pool.map_array pool (fun (lo, text) -> eval states.(lo) text) keys in
  let got = Pool.map_array pool (fun (r, _, _, _) -> served_answer replies.(r.idx)) reads in
  let mismatches = ref 0 and examples = ref [] in
  Array.iteri
    (fun i (r, text, lo, hi) ->
      let same expected = got.(i) = Some expected in
      let rec any k = k <= hi && (same (eval states.(k) text) || any (k + 1)) in
      if not (same answers.(Hashtbl.find distinct (lo, text)) || any (lo + 1)) then begin
        incr mismatches;
        if List.length !examples < 3 then
          examples := Printf.sprintf "request %d (states %d..%d): %s" r.idx lo hi text :: !examples
      end)
    reads;
  { checked = Array.length reads; mismatches = !mismatches;
    failed = List.length (List.filter (fun r -> r.status <> "ok") rows);
    attempted = List.length rows; examples = List.rev !examples }

let verdict_json v =
  Jsonx.Obj
    [ ("checked", Jsonx.Int v.checked);
      ("mismatches", Jsonx.Int v.mismatches);
      ("failed", Jsonx.Int v.failed);
      ("attempted", Jsonx.Int v.attempted);
      ("examples", Jsonx.Arr (List.map (fun s -> Jsonx.Str s) v.examples)) ]
