(* SERVE — closed-loop load generation against the serve daemon.

   The serving scenario end to end: one warm engine (schema + Qcache +
   pool) behind `Server.serve` on a unix socket, and N closed-loop
   clients (each waits for its answer before sending the next request)
   driving the Workload.t0 template mix — the paper's §V "frequent query
   load", every instantiation sharing one plan through the plan cache.

   Two passes:
     cold  — one client asks each distinct window once against a fresh
             cache (plan + fetch + result misses);
     warm  — N clients hammer the same mix concurrently; the result
             tier answers, so this measures protocol + scheduling
             overhead under concurrency.

   Invariants gated by `make bench-serve` (jq on BENCH_serve.json):
   every response byte-identical to direct in-process evaluation
   (`identical`), positive throughput, and a present (non-null) p99 —
   the NaN-to-null regression guard: an empty latency list must never
   produce `NaN` literals that break jq. *)

open Bpq_graph
open Bpq_pattern
open Bpq_core
open Bench_common
module Server = Bpq_core.Server
module Sock = Bpq_util.Sock
module Jsonx = Bpq_util.Jsonx

let n_clients = if fast then 4 else 8
let reqs_per_client = if fast then 30 else 120

(* Decode a server response's matches back to the evaluator's answer
   shape for the identity check. *)
let matches_of_response j =
  match Jsonx.member "matches" j with
  | Some (Jsonx.Arr rows) ->
    Some
      (List.map
         (fun row ->
           match row with
           | Jsonx.Arr cells ->
             Array.of_list
               (List.map
                  (fun c -> match Jsonx.to_int_opt c with Some v -> v | None -> -1)
                  cells)
           | _ -> [||])
         rows)
  | _ -> None

let run () =
  section "SERVE — closed-loop clients against the serve daemon (template mix, cold vs warm)";
  let ds = dataset "IMDbG" base_scale in
  let t0 = W.t0 ds.W.table in
  let windows = if fast then 4 else 8 in
  let queries =
    List.init windows (fun i ->
        Template.instantiate t0
          [ ("lo", Value.Int (2003 + i)); ("hi", Value.Int (2003 + i + 2)) ])
  in
  let texts = Array.of_list (List.map Pattern_parser.to_source queries) in
  let src = Exec.source_of_schema ds.W.schema in
  let costs = Costs.of_graph ds.W.graph in
  (* The one-shot baseline: the same plan path `bpq run` takes, computed
     in-process.  Every served response must reproduce these matches
     byte-for-byte. *)
  let expected =
    List.map
      (fun q ->
        match Qplan.generate ~costs Actualized.Subgraph q src.Exec.constraints with
        | None -> invalid_arg "serve bench: template instantiation not bounded"
        | Some plan ->
          (match Bounded_eval.run ~pool src plan with
           | Bounded_eval.Matches ms -> ms
           | Bounded_eval.Relation _ -> assert false))
      queries
    |> Array.of_list
  in
  let cache = Qcache.create () in
  let server =
    Server.create ~cache ~max_inflight:256 ~max_connections:(n_clients + 4) ~pool
      { Server.src; costs = Some costs; close = ignore }
  in
  let sock_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bpq-bench-%d.sock" (Unix.getpid ()))
  in
  let addr = Sock.Unix_path sock_path in
  let lfd = Sock.listen addr in
  let server_thread = Thread.create (fun () -> Server.serve server lfd) () in
  let identical = ref true in
  let id_mu = Mutex.create () in
  let note_mismatch () =
    Mutex.lock id_mu;
    identical := false;
    Mutex.unlock id_mu
  in
  (* One client's closed loop: [n] requests cycling through the template
     windows starting at [offset]; returns per-request latencies. *)
  let client_loop ~offset n =
    let conn = Server.Client.connect ~read_timeout:60.0 ~write_timeout:60.0 addr in
    Fun.protect ~finally:(fun () -> Server.Client.close conn) @@ fun () ->
    List.init n (fun i ->
        let k = (offset + i) mod windows in
        let start = Timer.now () in
        let resp = Server.Client.query conn texts.(k) in
        let elapsed = Timer.now () -. start in
        (match (Jsonx.member "ok" resp, matches_of_response resp) with
         | Some (Jsonx.Bool true), Some ms when ms = expected.(k) -> ()
         | _ -> note_mismatch ());
        elapsed)
  in
  (* Cold pass: each window once, single client, empty cache. *)
  let cold_lat, cold_s = Timer.time (fun () -> client_loop ~offset:0 windows) in
  let cold_stats = Qcache.stats cache in
  (* Warm pass: concurrent closed-loop clients over the same mix. *)
  let results = Array.make n_clients [] in
  let (), warm_s =
    Timer.time (fun () ->
        let threads =
          List.init n_clients (fun c ->
              Thread.create
                (fun () -> results.(c) <- client_loop ~offset:c reqs_per_client)
                ())
        in
        List.iter Thread.join threads)
  in
  let warm_lat = List.concat (Array.to_list results) in
  let warm_stats = Qcache.stats cache in
  Server.request_stop server;
  Thread.join server_thread;
  Sock.close_listener addr lfd;
  let total = n_clients * reqs_per_client in
  let throughput = if warm_s > 0.0 then float_of_int total /. warm_s else 0.0 in
  let ms_opt v = Option.map (fun s -> s *. 1000.0) v in
  let p50 = ms_opt (Stats.percentile_opt 0.5 warm_lat) in
  let p99 = ms_opt (Stats.percentile_opt 0.99 warm_lat) in
  let cold_p50 = ms_opt (Stats.percentile_opt 0.5 cold_lat) in
  let warm_result_hits = warm_stats.Qcache.result_hits - cold_stats.Qcache.result_hits in
  let cell = function Some v -> Printf.sprintf "%.3fms" v | None -> "n/a" in
  let table =
    Table.create [ "pass"; "clients"; "requests"; "wall"; "p50"; "p99"; "qps" ]
  in
  Table.add_row table
    [ "cold"; "1"; string_of_int windows; Table.cell_time cold_s;
      cell cold_p50; cell (ms_opt (Stats.percentile_opt 0.99 cold_lat)); "-" ];
  Table.add_row table
    [ "warm";
      string_of_int n_clients;
      string_of_int total;
      Table.cell_time warm_s;
      cell p50;
      cell p99;
      Printf.sprintf "%.0f" throughput ];
  print_table table;
  (* Print only that the tier fired and leave the count to the JSON
     artefact, which `make bench-serve` gates on — the CI smoke diffs
     this output across job counts. *)
  Printf.printf "  identical to one-shot evaluation: %b (result tier hit during load: %b)\n%!"
    !identical (warm_result_hits > 0);
  push_json_field "serve"
    (Json.Obj
       [ ("clients", Json.Int n_clients);
         ("requests", Json.Int total);
         ("windows", Json.Int windows);
         ("cold_s", Json.Float cold_s);
         ("warm_s", Json.Float warm_s);
         ("throughput_qps", Json.Float throughput);
         ("p50_ms", Jsonx.of_float_opt p50);
         ("p99_ms", Jsonx.of_float_opt p99);
         ("cold_p50_ms", Jsonx.of_float_opt cold_p50);
         ("result_hits_warm", Json.Int warm_result_hits);
         ("identical", Json.Bool !identical) ])

(* ------------------------------------------------------------------ *)
(* SERVE-OPEN — open-loop Poisson load generation.                     *)
(* ------------------------------------------------------------------ *)

(* The closed-loop bench above cannot see queueing delay: each client
   waits for its answer, so offered load collapses to match capacity and
   p99 stays flat however overloaded the server is.  Here arrivals are
   scheduled ahead of time from a Poisson process at a target rate and
   latency is measured from the *scheduled* arrival, not the send — the
   standard coordinated-omission correction — so when the server falls
   behind, the backlog shows up in the tail exactly as a real user would
   feel it.

   Two workload mixes over the Workload.t0 template:
     duplicate-heavy — requests cycle over a handful of hot windows, the
       single-flight regime: concurrent identical queries should
       coalesce, so evaluations-per-request falls well below 1 and the
       latency curve survives rates that the same server cannot sustain
       query-by-query;
     duplicate-free  — every request a distinct window (no two in flight
       alike), measuring the coalescing machinery's overhead on traffic
       it cannot help, and locating the knee where p99 blows up.

   The result tier is disabled for every pass (result_capacity 0): with
   it on, a duplicate-heavy mix is answered from cache after one
   evaluation and coalescing never gets exercised; with it off, the
   evaluations-per-request ratio cleanly equals what single-flight
   saves.  The plan and fetch tiers stay on, as in production.

   Rates are calibrated from a short closed-loop burst (the measured
   capacity of this machine/scale), then swept as multiples of it, so
   the sweep brackets the knee on any hardware. *)

module Histogram = Bpq_util.Histogram

type orow = {
  target : float;  (* offered arrival rate, qps *)
  achieved : float;  (* completed / wall, qps *)
  n_req : int;
  p50_ms : float option;
  p90_ms : float option;
  p99_ms : float option;
  evals : int;  (* result-tier misses = actual evaluations *)
  leaders : int;
  followers : int;
  redispatches : int;
}

let run_open () =
  section
    "SERVE-OPEN — open-loop Poisson arrivals: latency under load, coalescing on the serve path";
  let ds = dataset "IMDbG" base_scale in
  let t0 = W.t0 ds.W.table in
  let seed = 2015 in
  let clients = if fast then 6 else 12 in
  let hot_n = 4 in
  let window lo hi =
    Template.instantiate t0 [ ("lo", Value.Int lo); ("hi", Value.Int hi) ]
  in
  let hot = Array.init hot_n (fun i -> window (2003 + i) (2005 + i)) in
  let hot_texts = Array.map Pattern_parser.to_source hot in
  (* Distinct-per-request windows: years stride over the full 1880-2014
     span with coprime step 13, widths cycle 1..3 — no two requests in a
     pass share (lo, hi), so nothing coalesces. *)
  let free_text i =
    let lo = 1880 + (i * 13 mod 133) in
    Pattern_parser.to_source (window lo (lo + 1 + (i mod 3)))
  in
  let src = Exec.source_of_schema ds.W.schema in
  let costs = Costs.of_graph ds.W.graph in
  let expected =
    Array.map
      (fun q ->
        match Qplan.generate ~costs Actualized.Subgraph q src.Exec.constraints with
        | None -> invalid_arg "serve-open bench: template instantiation not bounded"
        | Some plan ->
          (match Bounded_eval.run ~pool src plan with
           | Bounded_eval.Matches ms -> ms
           | Bounded_eval.Relation _ -> assert false))
      hot
  in
  let pass_id = ref 0 in
  let with_server ~coalesce f =
    incr pass_id;
    let cache = Qcache.create ~result_capacity:0 () in
    let server =
      Server.create ~cache ~coalesce ~max_inflight:4096 ~max_connections:(clients + 4)
        ~pool
        { Server.src; costs = Some costs; close = ignore }
    in
    let sock_path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "bpq-open-%d-%d.sock" (Unix.getpid ()) !pass_id)
    in
    let addr = Sock.Unix_path sock_path in
    let lfd = Sock.listen addr in
    let th = Thread.create (fun () -> Server.serve server lfd) () in
    Fun.protect
      ~finally:(fun () ->
        Server.request_stop server;
        Thread.join th;
        Sock.close_listener addr lfd)
      (fun () -> f ~cache ~addr)
  in
  let int_member name j =
    match Jsonx.member name j with
    | Some v -> Option.value (Jsonx.to_int_opt v) ~default:0
    | None -> 0
  in
  let coalesce_counters conn =
    let st = Server.Client.stats conn in
    match Jsonx.member "coalescing" st with
    | Some c ->
      (int_member "leaders" c, int_member "followers" c, int_member "redispatches" c)
    | None -> (0, 0, 0)
  in
  (* Closed-loop burst with every client hammering distinct windows:
     the sustainable evaluation capacity the rate sweep is scaled to. *)
  let calibrate addr =
    let per = if fast then 10 else 25 in
    let (), s =
      Timer.time (fun () ->
          let threads =
            List.init clients (fun c ->
                Thread.create
                  (fun () ->
                    let conn =
                      Server.Client.connect ~read_timeout:60.0 ~write_timeout:60.0 addr
                    in
                    Fun.protect ~finally:(fun () -> Server.Client.close conn)
                    @@ fun () ->
                    for i = 0 to per - 1 do
                      ignore (Server.Client.query conn (free_text ((c * per) + i)))
                    done)
                  ())
          in
          List.iter Thread.join threads)
    in
    float_of_int (clients * per) /. Float.max s 1e-6
  in
  (* One open-loop pass at [rate]: a global Poisson arrival schedule is
     split round-robin across the client connections (each client's
     subsequence keeps increasing arrival times); every client sleeps to
     its next scheduled send, and latency runs from that schedule point
     to the response.  [check] validates each response; returns the
     measured row. *)
  let open_loop ~addr ~cache ~text_of ~check ~rate =
    let dur = if fast then 2.0 else 4.0 in
    let n =
      max 40 (min (if fast then 1500 else 8000) (int_of_float (rate *. dur)))
    in
    let rng = Prng.create (seed + n) in
    let arrivals = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let u = Prng.float rng 1.0 in
      acc := !acc +. (-.Float.log (Float.max 1e-12 (1.0 -. u)) /. rate);
      arrivals.(i) <- !acc
    done;
    let texts = Array.init n text_of in
    let stats_conn = Server.Client.connect ~read_timeout:60.0 ~write_timeout:60.0 addr in
    let l0, f0, r0 = coalesce_counters stats_conn in
    let q0 = Qcache.stats cache in
    let hists = Array.init clients (fun _ -> Histogram.create ()) in
    let last_done = Array.make clients 0.0 in
    let ok_all = Atomic.make true in
    let start = Timer.now () +. 0.05 in
    let threads =
      List.init clients (fun c ->
          Thread.create
            (fun () ->
              let conn =
                Server.Client.connect ~read_timeout:60.0 ~write_timeout:60.0 addr
              in
              Fun.protect ~finally:(fun () -> Server.Client.close conn) @@ fun () ->
              let i = ref c in
              while !i < n do
                let sched = start +. arrivals.(!i) in
                let now = Timer.now () in
                if sched > now then Thread.delay (sched -. now);
                let resp = Server.Client.query conn texts.(!i) in
                let finish = Timer.now () in
                Histogram.add hists.(c) (finish -. sched);
                last_done.(c) <- finish;
                if not (check !i resp) then Atomic.set ok_all false;
                i := !i + clients
              done)
            ())
    in
    List.iter Thread.join threads;
    let l1, f1, r1 = coalesce_counters stats_conn in
    Server.Client.close stats_conn;
    let q1 = Qcache.stats cache in
    let merged = Histogram.create () in
    Array.iter (fun h -> Histogram.merge merged ~from:h) hists;
    let finish = Array.fold_left Float.max start last_done in
    let ms p = Option.map (fun s -> s *. 1000.0) (Histogram.percentile merged p) in
    ( { target = rate;
        achieved = float_of_int n /. Float.max (finish -. start) 1e-6;
        n_req = n;
        p50_ms = ms 0.5;
        p90_ms = ms 0.9;
        p99_ms = ms 0.99;
        evals = q1.Qcache.result_misses - q0.Qcache.result_misses;
        leaders = l1 - l0;
        followers = f1 - f0;
        redispatches = r1 - r0 },
      Atomic.get ok_all )
  in
  (* Duplicate-heavy arrivals come in bursts of one hot window at a
     time (the hot-dashboard shape), cycling over the windows every
     [burst] requests: arrivals close enough to overlap in the server
     overwhelmingly share a window — the single-flight sweet spot. *)
  let burst = 16 in
  let hot_idx i = i / burst mod hot_n in
  let check_hot i resp =
    match (Jsonx.member "ok" resp, matches_of_response resp) with
    | Some (Jsonx.Bool true), Some ms -> ms = expected.(hot_idx i)
    | _ -> false
  in
  let check_ok _ resp =
    match Jsonx.member "ok" resp with Some (Jsonx.Bool true) -> true | _ -> false
  in
  let hot_text i = hot_texts.(hot_idx i) in
  let mults = if fast then [ 0.5; 1.0; 2.0 ] else [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  let identical = ref true in
  let sweep ~cache ~addr ~text_of ~check base_qps =
    List.map
      (fun m ->
        let row, ok = open_loop ~addr ~cache ~text_of ~check ~rate:(m *. base_qps) in
        if not ok then identical := false;
        row)
      mults
  in
  let print_mix name rows =
    subsection name;
    let t =
      Table.create
        [ "target qps"; "achieved"; "p50"; "p90"; "p99"; "evals/req"; "followers" ]
    in
    List.iter
      (fun r ->
        let cell = function Some v -> Printf.sprintf "%.2fms" v | None -> "n/a" in
        Table.add_row t
          [ Printf.sprintf "%.0f" r.target;
            Printf.sprintf "%.0f" r.achieved;
            cell r.p50_ms;
            cell r.p90_ms;
            cell r.p99_ms;
            Printf.sprintf "%.3f" (float_of_int r.evals /. float_of_int (max 1 r.n_req));
            string_of_int r.followers ])
      rows;
    print_table t
  in
  (* Pass 1: duplicate-heavy, coalescing on — the tentpole measurement. *)
  let base_qps, dupheavy_rows =
    with_server ~coalesce:true (fun ~cache ~addr ->
        let base_qps = calibrate addr in
        (base_qps, sweep ~cache ~addr ~text_of:hot_text ~check:check_hot base_qps))
  in
  (* Pass 2: duplicate-free, coalescing on — overhead + the p99 knee.
     Each pass gets the same calibration warmup as pass 1 (whose value
     sets the shared rate axis), so the servers being compared carry
     identical history — an uncalibrated server measures visibly faster
     at low rates, which would be warmup skew, not coalescing cost. *)
  let dupfree_rows =
    with_server ~coalesce:true (fun ~cache ~addr ->
        ignore (calibrate addr : float);
        sweep ~cache ~addr ~text_of:free_text ~check:check_ok base_qps)
  in
  (* Pass 3: the coalescing-off control at the lowest swept rate.  The
     on and off servers run side by side and the duplicate-free passes
     alternate between them for [regress_rounds] rounds: the reported
     p50 regression compares medians of interleaved measurements, so
     slow drift of the host (other tenants, thermal state) cancels
     instead of masquerading as coalescing overhead — back-to-back
     closed-loop probes of the two paths agree within noise, while
     single open-loop passes run a minute apart disagree by 10-15% in
     either direction.  The duplicate-heavy off pass doubles as the
     identity baseline: its answers must match the same in-process
     expected set as pass 1. *)
  let low_rate = List.hd mults *. base_qps in
  let regress_rounds = 3 in
  let dupheavy_off, dupfree_on_p50s, dupfree_off_rows =
    with_server ~coalesce:true (fun ~cache:cache_on ~addr:addr_on ->
        with_server ~coalesce:false (fun ~cache ~addr ->
            ignore (calibrate addr_on : float);
            ignore (calibrate addr : float);
            let on_p50s = ref [] and off_rows = ref [] in
            for _ = 1 to regress_rounds do
              let row_on, ok_on =
                open_loop ~addr:addr_on ~cache:cache_on ~text_of:free_text
                  ~check:check_ok ~rate:low_rate
              in
              if not ok_on then identical := false;
              Option.iter (fun p -> on_p50s := p :: !on_p50s) row_on.p50_ms;
              let row_off, ok_off =
                open_loop ~addr ~cache ~text_of:free_text ~check:check_ok
                  ~rate:low_rate
              in
              if not ok_off then identical := false;
              off_rows := row_off :: !off_rows
            done;
            let heavy, ok_h =
              open_loop ~addr ~cache ~text_of:hot_text ~check:check_hot
                ~rate:low_rate
            in
            if not ok_h then identical := false;
            (heavy, List.rev !on_p50s, List.rev !off_rows)))
  in
  let median l =
    match List.sort compare l with
    | [] -> None
    | s -> Some (List.nth s (List.length s / 2))
  in
  (* The off row printed and reported is the median-p50 round. *)
  let dupfree_off =
    let keyed =
      List.sort compare
        (List.map
           (fun r -> (Option.value r.p50_ms ~default:infinity, r))
           dupfree_off_rows)
    in
    snd (List.nth keyed (List.length keyed / 2))
  in
  print_mix
    (Printf.sprintf "duplicate-heavy (%d hot windows in bursts of %d, coalescing on)"
       hot_n burst)
    dupheavy_rows;
  print_mix "duplicate-free (distinct windows, coalescing on)" dupfree_rows;
  print_mix "coalescing off, lowest rate (dup-heavy then dup-free)"
    [ dupheavy_off; dupfree_off ];
  (* Top sustainable rate: the largest swept rate the server kept up
     with (achieved >= 90% of target); the knee is the first target it
     missed. *)
  let sustained rows =
    List.filter (fun r -> r.achieved >= 0.9 *. r.target) rows
  in
  let top_row rows =
    match List.rev (sustained rows) with r :: _ -> Some r | [] -> None
  in
  let knee rows =
    (* The first rate the server missed *beyond* the top sustained one
       — a noisy shortfall at the bottom of the sweep (warmup, schedule
       variance at small n) is not a knee. *)
    match List.rev (sustained rows) with
    | [] -> List.find_opt (fun r -> r.achieved < 0.9 *. r.target) rows
    | top :: _ ->
      List.find_opt
        (fun r -> r.target > top.target && r.achieved < 0.9 *. r.target)
        rows
  in
  let epr r = float_of_int r.evals /. float_of_int (max 1 r.n_req) in
  let dupheavy_top = top_row dupheavy_rows in
  let dupfree_on_p50 = median dupfree_on_p50s in
  let dupfree_off_p50 =
    median (List.filter_map (fun r -> r.p50_ms) dupfree_off_rows)
  in
  let p50_regress_pct =
    match (dupfree_on_p50, dupfree_off_p50) with
    | Some on, Some off when off > 0.0 -> Some ((on -. off) /. off *. 100.0)
    | _ -> None
  in
  Printf.printf
    "  identical: %b; dup-heavy evals/request at top sustainable rate: %s; dup-free p50 \
     regression vs coalescing-off: %s\n\
     %!"
    !identical
    (match dupheavy_top with Some r -> Printf.sprintf "%.3f" (epr r) | None -> "n/a")
    (match p50_regress_pct with Some p -> Printf.sprintf "%+.1f%%" p | None -> "n/a");
  let row_json r =
    Json.Obj
      [ ("target_qps", Json.Float r.target);
        ("achieved_qps", Json.Float r.achieved);
        ("requests", Json.Int r.n_req);
        ("p50_ms", Jsonx.of_float_opt r.p50_ms);
        ("p90_ms", Jsonx.of_float_opt r.p90_ms);
        ("p99_ms", Jsonx.of_float_opt r.p99_ms);
        ("evals_per_request", Json.Float (epr r));
        ("leaders", Json.Int r.leaders);
        ("followers", Json.Int r.followers);
        ("redispatches", Json.Int r.redispatches) ]
  in
  let mix_json rows extra =
    Json.Obj
      ([ ("rates", Json.Arr (List.map row_json rows));
         ("followers_total", Json.Int (List.fold_left (fun a r -> a + r.followers) 0 rows));
         ( "knee_target_qps",
           match knee rows with Some r -> Json.Float r.target | None -> Json.Null );
         ( "top_sustainable_qps",
           match top_row rows with Some r -> Json.Float r.achieved | None -> Json.Null ) ]
      @ extra)
  in
  push_json_field "serve_open"
    (Json.Obj
       [ ("clients", Json.Int clients);
         ("seed", Json.Int seed);
         ("hot_windows", Json.Int hot_n);
         ("burst", Json.Int burst);
         ("rate_multipliers", Json.Arr (List.map (fun m -> Json.Float m) mults));
         ("base_qps", Json.Float base_qps);
         ("workload_mixes", Json.Arr [ Json.Str "duplicate-heavy"; Json.Str "duplicate-free" ]);
         ( "dupheavy",
           mix_json dupheavy_rows
             [ ( "evals_per_request_top",
                 match dupheavy_top with
                 | Some r -> Json.Float (epr r)
                 | None -> Json.Null );
               ("off_low_rate", row_json dupheavy_off) ] );
         ( "dupfree",
           mix_json dupfree_rows
             [ ("off_low_rate", row_json dupfree_off);
               ("regress_rounds", Json.Int regress_rounds);
               ("p50_on_ms_median", Jsonx.of_float_opt dupfree_on_p50);
               ("p50_off_ms_median", Jsonx.of_float_opt dupfree_off_p50);
               ( "p50_regress_pct",
                 match p50_regress_pct with Some p -> Json.Float p | None -> Json.Null )
             ] );
         ("identical", Json.Bool !identical) ])
