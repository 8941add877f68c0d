(* pbtrace — the traced run: per-layer numbers for one workload.

     pbtrace --dir D --snapshot FILE --backend mem|paged|sharded
             [--page-cache MB] [--wal] --bpq EXE --reads N

   --page-cache is required with --backend paged.  Replays the first N
   reads of D/stream.jsonl (with the writes and compactions between
   them) sequentially through an in-process
   Server.create over a Store of the same backend, with a sequential
   pool so that every count repeats exactly, and prints one JSON object
   of per-layer metrics.  Three passes, each over a fresh store:

   A  traced:   Server.handle_line over a wrapped Exec.source whose every
                lookup / batched probe / prefetch / push / warm call is a
                child span of the request (single-pair probe_edge calls
                are counted and timed, not kept one by one);
                per-request deltas of the Qcache,
                page-cache, shard-traffic, overlay and WAL counters; the
                write and compact hooks time Store.apply_ops and
                Store.compact.
   B  plain:    the same stream over the unwrapped source, for the
                tracing overhead.
   C  direct:   Jsonx, Pattern_parser, Qplan.generate, Exec.run_with and
                Bounded_eval.matches_with called one by one, to split the
                request's time by layer.

   Spans are kept in memory and written to D/trace/spans.tsv at the end:
   request index, span name, start and duration in microseconds. *)

open Bpq_util
open Bpq_core
module Store = Bpq_store.Store
module Remote = Bpq_store.Remote
module Shard = Bpq_store.Shard
module Paged = Bpq_store.Paged
module Overlay = Bpq_store.Overlay
module Wal = Bpq_store.Wal
module Json = Jsonx

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans around the store seam                                         *)
(* ------------------------------------------------------------------ *)

type seam = {
  mutable req : int;
  mutable seam_s : float;  (* time inside store-seam calls, this request *)
  mutable lookups : int;
  mutable items : int;
  mutable lookup_s : float;
  mutable probes : int;
  mutable spans : (int * string * float * float) list;  (* req, name, start, end *)
}

let seam = { req = -1; seam_s = 0.0; lookups = 0; items = 0; lookup_s = 0.0; probes = 0; spans = [] }

let span name f =
  let t0 = now () in
  let finish () =
    let t1 = now () in
    seam.seam_s <- seam.seam_s +. (t1 -. t0);
    seam.spans <- (seam.req, name, t0, t1) :: seam.spans;
    t1 -. t0
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let span_ name f = fst (span name f)

(* Every hook keeps its Some/None exactly as the source had it: the
   executor branches on their presence. *)
let wrap (src : Exec.source) : Exec.source =
  { src with
    lookup =
      (fun c key ->
        let r, dt = span "lookup" (fun () -> src.lookup c key) in
        seam.lookups <- seam.lookups + 1;
        seam.items <- seam.items + Array.length r;
        seam.lookup_s <- seam.lookup_s +. dt;
        r);
    lookup_iter =
      (fun c key f ->
        let (), dt =
          span "lookup_iter" (fun () ->
              src.lookup_iter c key (fun v ->
                  seam.items <- seam.items + 1;
                  f v))
        in
        seam.lookups <- seam.lookups + 1;
        seam.lookup_s <- seam.lookup_s +. dt);
    probe_edge =
      (* Called once per candidate pair: counted and timed into the
         request's seam time, but not kept as a span of its own. *)
      (fun u v ->
        seam.probes <- seam.probes + 1;
        let t0 = now () in
        let r = src.probe_edge u v in
        seam.seam_s <- seam.seam_s +. (now () -. t0);
        r);
    probe_edges =
      Option.map
        (fun g pairs ->
          seam.probes <- seam.probes + Array.length pairs;
          span_ "probe_edges" (fun () -> g pairs))
        src.probe_edges;
    prefetch = Option.map (fun g c rows -> span_ "prefetch" (fun () -> g c rows)) src.prefetch;
    push_fetch =
      Option.map (fun g c p rows -> span_ "push_fetch" (fun () -> g c p rows)) src.push_fetch;
    push_semijoin =
      Option.map
        (fun g c ~row ~arrays ~other_slot ~target_right ->
          span_ "push_semijoin" (fun () -> g c ~row ~arrays ~other_slot ~target_right))
        src.push_semijoin;
    warm_nodes = Option.map (fun g ids -> span_ "warm_nodes" (fun () -> g ids)) src.warm_nodes }

(* ------------------------------------------------------------------ *)
(* Stores and the write path, as `bpq serve` wires them                *)
(* ------------------------------------------------------------------ *)

type env = {
  backend : string;
  page_cache : int;
  with_wal : bool;
  bpq : string;
  work : string;  (* D/trace *)
  pristine : string;
}

type state = {
  env : env;
  snap : string;  (* this pass's snapshot (compacted in place) *)
  wal : string;
  traced : bool;
  mutable store : Store.t;
  mutable retired : Store.t list;
  (* write-path accounting, filled by the hooks *)
  mutable append_s : float list;
  mutable appended_ops : int;
  mutable appended_bytes : int;
  mutable fold_s : float list;
  mutable fold_bytes : int list;
}

let open_store env path =
  match env.backend with
  | "mem" -> Store.open_snapshot ~backend:Store.Mem path
  | "paged" -> Store.open_snapshot ~backend:Store.Paged ~page_cache_mb:env.page_cache path
  | "sharded" ->
    let m = Shard.load_manifest path in
    Store.of_remote ~path ~pushdown:true
      (Remote.spawn ~argv:(fun ~shard_file -> [| env.bpq; "worker"; shard_file |]) m)
  | b -> failwith ("unknown backend " ^ b)

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc data)

let file_size path = In_channel.with_open_bin path (fun ic -> Int64.to_int (In_channel.length ic))

let fresh_state env ~traced ~pass =
  let snap =
    if env.backend = "sharded" then Filename.concat env.work "shards"
    else begin
      let p = Filename.concat env.work (Printf.sprintf "pass%s.bin" pass) in
      copy_file env.pristine p;
      p
    end
  in
  let wal = Filename.concat env.work (Printf.sprintf "pass%s.wal" pass) in
  let store = open_store env snap in
  if env.with_wal then ignore (Store.attach_wal store wal);
  { env; snap; wal; traced; store; retired = []; append_s = []; appended_ops = 0;
    appended_bytes = 0; fold_s = []; fold_bytes = [] }

(* The sharded store carries no statistics, so `bpq serve` plans
   without costs there; the others plan with the snapshot's. *)
let costs st =
  if st.env.backend = "sharded" then None else Option.map Costs.make (Store.selectivity st.store)

let slot st =
  let src = Store.source st.store in
  { Server.src = (if st.traced then wrap src else src); costs = costs st; close = ignore }

let parse_ops req =
  match Json.member "ops" req with
  | Some (Json.Arr l) ->
    List.fold_right
      (fun j acc ->
        match (acc, Wal.op_of_json j) with
        | Ok ops, Ok op -> Ok (op :: ops)
        | (Error _ as e), _ -> e
        | _, Error e -> Error e)
      l (Ok [])
  | _ -> Error "missing \"ops\""

let write st req =
  match parse_ops req with
  | Error e -> Error ("bad_request", e)
  | Ok ops ->
    let w = Option.get (Store.wal st.store) in
    let before = Wal.bytes w in
    let t0 = now () in
    let r = Store.apply_ops st.store ops in
    st.append_s <- (now () -. t0) :: st.append_s;
    (match r with
     | Error msg -> Error ("bad_request", msg)
     | Ok n ->
       st.appended_ops <- st.appended_ops + List.length ops;
       st.appended_bytes <- st.appended_bytes + (Wal.bytes w - before);
       Ok (Some (slot st), [ ("applied", Json.Int n) ]))

let compact st () =
  let ov = Option.get (Store.overlay st.store) in
  let t0 = now () in
  match Store.compact st.store with
  | exception Failure msg -> Error ("bad_request", msg)
  | path ->
    st.fold_s <- (now () -. t0) :: st.fold_s;
    st.fold_bytes <- file_size path :: st.fold_bytes;
    st.retired <- st.store :: st.retired;
    let store = open_store st.env st.snap in
    ignore (Store.attach_wal ~carry:ov store st.wal);
    st.store <- store;
    Ok (Some (slot st), [ ("snapshot", Json.Str path) ])

let close_state st = List.iter Store.close (st.store :: st.retired)

(* As `bpq serve` with its default 64 MB cache, but a sequential pool:
   every query runs inline, so every count repeats exactly. *)
let server st cache =
  let hooks = st.env.with_wal in
  Server.create ~cache ~pool:Pool.sequential
    ?write:(if hooks then Some (write st) else None)
    ?compact:(if hooks then Some (compact st) else None)
    (slot st)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

type counters = {
  q : Qcache.stats;
  io : Paged.io_counters option;
  rm : Remote.stats option;
  ov : Overlay.counter_snapshot option;
}

let counters srv_cache st =
  { q = Qcache.stats srv_cache;
    io = Store.io_counters st.store;
    rm = Option.map Remote.stats (Store.remote st.store);
    ov = Store.overlay_counters st.store }

(* Per-request totals, accumulated over the traced pass. *)
type totals = {
  mutable reads : int;
  mutable handle_s : float;
  mutable read_seam_s : float;
  mutable t_lookups : int;
  mutable t_items : int;
  mutable t_lookup_s : float;
  mutable t_probes : int;
  mutable result_hits : int;
  mutable result_misses : int;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable fetch_hits : int;
  mutable fetch_misses : int;
  mutable fetch_evictions : int;
  mutable result_stale : int;
  mutable faults : int;
  mutable page_hits : int;
  mutable bytes_read : int;
  mutable rounds : int;
  mutable messages : int;
  mutable wire_bytes : int;
  mutable server_ns : int;
  mutable ov_lookups : int;
  mutable ov_merged : int;
  mutable ov_masked : int;
  mutable ov_live_ops : int;
}

let sum = Array.fold_left ( + ) 0

let accumulate t ~same_store (b : counters) (a : counters) =
  let d f = f a.q - f b.q in
  t.result_hits <- t.result_hits + d (fun s -> s.Qcache.result_hits);
  t.result_misses <- t.result_misses + d (fun s -> s.Qcache.result_misses);
  t.plan_hits <- t.plan_hits + d (fun s -> s.Qcache.plan_hits);
  t.plan_misses <- t.plan_misses + d (fun s -> s.Qcache.plan_misses);
  t.fetch_hits <- t.fetch_hits + d (fun s -> s.Qcache.fetch_hits);
  t.fetch_misses <- t.fetch_misses + d (fun s -> s.Qcache.fetch_misses);
  t.fetch_evictions <- t.fetch_evictions + d (fun s -> s.Qcache.fetch_evictions);
  t.result_stale <- t.result_stale + d (fun s -> s.Qcache.result_stale);
  (* A compaction swaps in a fresh store whose counters start at zero. *)
  let delta f a b = match (a, b) with Some a, Some b when same_store -> f a - f b | Some a, _ -> f a | None, _ -> 0 in
  t.faults <- t.faults + delta (fun c -> c.Paged.faults) a.io b.io;
  t.page_hits <- t.page_hits + delta (fun c -> c.Paged.hits) a.io b.io;
  t.bytes_read <- t.bytes_read + delta (fun c -> c.Paged.bytes_read) a.io b.io;
  t.rounds <- t.rounds + delta (fun (s : Remote.stats) -> s.rounds) a.rm b.rm;
  t.messages <- t.messages + delta (fun (s : Remote.stats) -> sum s.messages) a.rm b.rm;
  t.wire_bytes <-
    t.wire_bytes
    + delta (fun (s : Remote.stats) -> sum s.bytes_sent + sum s.bytes_received) a.rm b.rm;
  t.server_ns <- t.server_ns + delta (fun (s : Remote.stats) -> sum s.server_ns) a.rm b.rm;
  t.ov_lookups <- t.ov_lookups + delta (fun c -> c.Overlay.c_lookups) a.ov b.ov;
  t.ov_merged <- t.ov_merged + delta (fun c -> c.Overlay.c_merged) a.ov b.ov;
  t.ov_masked <- t.ov_masked + delta (fun c -> c.Overlay.c_masked) a.ov b.ov

(* ------------------------------------------------------------------ *)
(* The passes                                                          *)
(* ------------------------------------------------------------------ *)

let is_read (o : Inputs.op) = o.kind = Inputs.Read

let zero_totals () =
  { reads = 0; handle_s = 0.0; read_seam_s = 0.0; t_lookups = 0; t_items = 0; t_lookup_s = 0.0;
    t_probes = 0; result_hits = 0; result_misses = 0; plan_hits = 0; plan_misses = 0;
    fetch_hits = 0; fetch_misses = 0; fetch_evictions = 0; result_stale = 0; faults = 0;
    page_hits = 0; bytes_read = 0; rounds = 0; messages = 0; wire_bytes = 0; server_ns = 0;
    ov_lookups = 0; ov_merged = 0; ov_masked = 0; ov_live_ops = 0 }

(* Pass A: returns the state (write-path accounting), the read totals,
   the total handle time, each request's response line, and whether the
   result tier answered it. *)
let traced_pass env (ops : Inputs.op array) =
  let st = fresh_state env ~traced:true ~pass:"A" in
  let cache = Qcache.of_megabytes 64 in
  let srv = server st cache in
  let t = zero_totals () in
  let handle_all = ref 0.0 in
  let replies = Array.make (Array.length ops) "" in
  let result_hit = Array.make (Array.length ops) false in
  Array.iteri
    (fun i (o : Inputs.op) ->
      seam.req <- i;
      seam.seam_s <- 0.0;
      seam.lookups <- 0;
      seam.items <- 0;
      seam.lookup_s <- 0.0;
      seam.probes <- 0;
      let store0 = st.store in
      let live_ops = Option.fold ~none:0 ~some:Overlay.n_ops (Store.overlay st.store) in
      let before = counters cache st in
      let line = Json.to_string o.req in
      let t0 = now () in
      let reply = Server.handle_line srv line in
      let t1 = now () in
      seam.spans <- (i, "handle_line", t0, t1) :: seam.spans;
      handle_all := !handle_all +. (t1 -. t0);
      replies.(i) <- reply;
      if is_read o then begin
        let after = counters cache st in
        result_hit.(i) <- after.q.Qcache.result_hits > before.q.Qcache.result_hits;
        t.reads <- t.reads + 1;
        t.handle_s <- t.handle_s +. (t1 -. t0);
        t.read_seam_s <- t.read_seam_s +. seam.seam_s;
        t.t_lookups <- t.t_lookups + seam.lookups;
        t.t_items <- t.t_items + seam.items;
        t.t_lookup_s <- t.t_lookup_s +. seam.lookup_s;
        t.t_probes <- t.t_probes + seam.probes;
        t.ov_live_ops <- t.ov_live_ops + live_ops;
        accumulate t ~same_store:(st.store == store0) before after
      end)
    ops;
  (st, t, !handle_all, replies, result_hit)

(* Pass B: the same stream over the unwrapped source; total handle time. *)
let plain_pass env (ops : Inputs.op array) =
  let st = fresh_state env ~traced:false ~pass:"B" in
  let srv = server st (Qcache.of_megabytes 64) in
  let total = ref 0.0 in
  Array.iter
    (fun (o : Inputs.op) ->
      let line = Json.to_string o.req in
      let t0 = now () in
      ignore (Server.handle_line srv line);
      total := !total +. (now () -. t0))
    ops;
  close_state st;
  !total

type direct = {
  mutable decode_s : float;
  mutable parse_s : float;
  mutable encode_s : float;
  mutable response_bytes : int;
  mutable plan_s : float list;  (* one per distinct shape *)
  mutable exec_s : float;
  mutable matcher_s : float;
  mutable accessed : int;
  mutable gq_size : int;
  mutable realized : int;
  mutable estimate : int;
  mutable violations : int;
  mutable matches : int;
}

(* Pass C: each layer called directly, on a fresh plain store that
   replays the same writes and compactions.  Requests the result tier
   answered in pass A ran neither the executor nor the matcher there, so
   they are not evaluated here either. *)
let direct_pass env (ops : Inputs.op array) replies result_hit =
  let st = fresh_state env ~traced:false ~pass:"C" in
  let d =
    { decode_s = 0.0; parse_s = 0.0; encode_s = 0.0; response_bytes = 0; plan_s = [];
      exec_s = 0.0; matcher_s = 0.0; accessed = 0; gq_size = 0; realized = 0; estimate = 0;
      violations = 0; matches = 0 }
  in
  let shapes = Hashtbl.create 16 in
  let timed f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  Array.iteri
    (fun i (o : Inputs.op) ->
      match o.kind with
      | Inputs.Write -> ignore (write st o.req)
      | Inputs.Compact -> ignore (compact st ())
      | Inputs.Read ->
        let line = Json.to_string o.req in
        let j, dt = timed (fun () -> Json.parse line) in
        d.decode_s <- d.decode_s +. dt;
        let text =
          match j with
          | Ok j -> (match Json.member "pattern" j with Some (Json.Str s) -> s | _ -> "")
          | Error e -> failwith e
        in
        let src = Store.source st.store in
        let q, dt = timed (fun () -> Bpq_pattern.Pattern_parser.parse_string src.Exec.table text) in
        d.parse_s <- d.parse_s +. dt;
        let costs = costs st in
        let plan, dt =
          timed (fun () -> Qplan.generate ?costs Actualized.Subgraph q src.Exec.constraints)
        in
        if not (Hashtbl.mem shapes o.shape) then begin
          Hashtbl.replace shapes o.shape ();
          d.plan_s <- dt :: d.plan_s
        end;
        (match plan with
         | Some plan when not result_hit.(i) ->
           let r, dt_exec = timed (fun () -> Exec.run_with src plan) in
           let (ms, _), dt_all = timed (fun () -> Bounded_eval.matches_with src plan) in
           d.exec_s <- d.exec_s +. dt_exec;
           d.matcher_s <- d.matcher_s +. Float.max 0.0 (dt_all -. dt_exec);
           d.accessed <- d.accessed + Exec.accessed r.Exec.stats;
           d.gq_size <-
             d.gq_size + Bpq_graph.Digraph.n_nodes r.Exec.gq + Bpq_graph.Digraph.n_edges r.Exec.gq;
           List.iter
             (fun (tr : Exec.op_trace) ->
               d.realized <- d.realized + tr.realized;
               d.estimate <- d.estimate + tr.estimate;
               if tr.realized > tr.estimate then d.violations <- d.violations + 1)
             r.Exec.trace;
           d.matches <- d.matches + List.length ms
         | Some _ | None -> ());
        (match Json.parse replies.(i) with
         | Ok resp ->
           let s, dt = timed (fun () -> Json.to_string resp) in
           d.encode_s <- d.encode_s +. dt;
           d.response_bytes <- d.response_bytes + String.length s
         | Error e -> failwith e))
    ops;
  close_state st;
  (d, Hashtbl.length shapes)

(* The replayed prefix: stream order, up to and including the [n]th read. *)
let prefix (ops : Inputs.op array) n =
  let rec upto i reads =
    if i >= Array.length ops || reads = n then i
    else upto (i + 1) (if is_read ops.(i) then reads + 1 else reads)
  in
  Array.sub ops 0 (upto 0 0)

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let write_spans path t0 =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (req, name, a, b) ->
          Printf.fprintf oc "%d\t%s\t%.3f\t%.3f\n" req name ((a -. t0) *. 1e6) ((b -. a) *. 1e6))
        (List.rev seam.spans))

let () =
  let dir = ref "." and snapshot = ref "" and backend = ref "mem" and page_cache = ref 0 in
  let with_wal = ref false and bpq = ref "" and reads = ref 100 in
  Arg.parse
    [ ("--dir", Arg.Set_string dir, "D");
      ("--snapshot", Arg.Set_string snapshot, "FILE");
      ("--backend", Arg.Set_string backend, "mem|paged|sharded");
      ("--page-cache", Arg.Set_int page_cache, "MB");
      ("--wal", Arg.Set with_wal, "");
      ("--bpq", Arg.Set_string bpq, "EXE");
      ("--reads", Arg.Set_int reads, "N") ]
    (fun a -> raise (Arg.Bad ("unexpected " ^ a)))
    "pbtrace";
  if !backend = "paged" && !page_cache <= 0 then begin
    prerr_endline "pbtrace: --backend paged needs --page-cache MB";
    exit 2
  end;
  Sock.ignore_sigpipe ();
  let work = Filename.concat !dir "trace" in
  Sys.mkdir work 0o755;
  let env =
    { backend = !backend; page_cache = !page_cache; with_wal = !with_wal; bpq = !bpq; work;
      pristine = !snapshot }
  in
  if env.backend = "sharded" then
    ignore (Shard.partition ~shards:2 ~snapshot:env.pristine ~dir:(Filename.concat work "shards"));
  let ops = prefix (Inputs.read_stream (Filename.concat !dir "stream.jsonl")) !reads in
  let start = now () in
  let st, t, handle_traced, replies, result_hit = traced_pass env ops in
  close_state st;
  let handle_plain = plain_pass env ops in
  let d, n_shapes = direct_pass env ops replies result_hit in
  write_spans (Filename.concat work "spans.tsv") start;
  let reads = float_of_int (max 1 t.reads) in
  let per x = float_of_int x /. reads in
  let per_us x = x *. 1e6 /. reads in
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let writes = List.length st.append_s in
  let metrics =
    [ ("jsonx.decode_us", per_us d.decode_s);
      ("jsonx.encode_us", per_us d.encode_s);
      ("jsonx.response_bytes", per d.response_bytes);
      ("pattern.parse_us", per_us d.parse_s);
      ("server.handle_us", per_us t.handle_s);
      ("server.self_us", per_us (t.handle_s -. t.read_seam_s));
      ("qcache.result_hit_rate", ratio t.result_hits t.result_misses);
      ("qcache.plan_hit_rate", ratio t.plan_hits t.plan_misses);
      ("qcache.fetch_hit_rate", ratio t.fetch_hits t.fetch_misses);
      ("qcache.fetch_evictions", per t.fetch_evictions);
      ("qcache.result_stale", per t.result_stale);
      ("qplan.plan_us", median d.plan_s *. 1e6);
      ("qplan.shapes", float_of_int n_shapes);
      ("exec.run_us", per_us d.exec_s);
      ("exec.accessed", per d.accessed);
      ("exec.gq_size", per d.gq_size);
      ("exec.realized_over_estimate", frac d.realized d.estimate);
      ("exec.bound_violations", float_of_int d.violations);
      ("matcher.us", per_us d.matcher_s);
      ("matcher.matches", per d.matches);
      ("store.lookups", per t.t_lookups);
      ("store.items_per_lookup", frac t.t_items t.t_lookups);
      ("store.lookup_us", per_us t.t_lookup_s);
      ("store.probes", per t.t_probes);
      ("paged.faults", per t.faults);
      ("paged.hit_rate", ratio t.page_hits t.faults);
      ("paged.bytes_read", per t.bytes_read);
      ("remote.rounds", per t.rounds);
      ("remote.messages", per t.messages);
      ("remote.bytes", per t.wire_bytes);
      ("remote.server_us", per t.server_ns /. 1e3);
      ( "remote.wait_us",
        if t.rounds = 0 then 0.0
        else per_us (Float.max 0.0 (t.read_seam_s -. (float_of_int t.server_ns /. 1e9))) );
      ("overlay.merged_frac", frac t.ov_merged t.ov_lookups);
      ("overlay.masked", per t.ov_masked);
      ("overlay.ops", per t.ov_live_ops);
      ( "wal.append_us",
        if writes = 0 then 0.0
        else List.fold_left ( +. ) 0.0 st.append_s *. 1e6 /. float_of_int writes );
      ("wal.bytes_per_op", frac st.appended_bytes st.appended_ops);
      ("compact.fold_s", median st.fold_s);
      ( "compact.bytes_written",
        match st.fold_bytes with
        | [] -> 0.0
        | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l) );
      ("trace.overhead_frac", (handle_traced -. handle_plain) /. handle_plain);
      ("trace.reads", float_of_int t.reads) ]
  in
  print_endline (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics)))
