(* The serve daemon: protocol routing, byte-identity with in-process
   evaluation under concurrent clients, disconnect survival, admission
   control, and live snapshot reload with cache retention. *)

open Bpq_graph
open Bpq_pattern
open Bpq_access
open Bpq_core
module W = Bpq_workload.Workload
module Pool = Bpq_util.Pool
module Sock = Bpq_util.Sock
module Json = Bpq_util.Jsonx

let ds = lazy (W.imdb ~scale:0.02 ())

let slot_of_schema ?(close = ignore) schema =
  { Server.src = Exec.source_of_schema schema; costs = None; close }

let fresh_slot () = slot_of_schema (Lazy.force ds).W.schema

let q0_text () = Pattern_parser.to_source (W.q0 (Lazy.force ds).W.table)

(* The direct, one-shot answer every served response must reproduce. *)
let direct_matches schema text =
  let src = Exec.source_of_schema schema in
  let q = Pattern_parser.parse_string src.Exec.table text in
  match Qplan.generate Actualized.Subgraph q src.Exec.constraints with
  | None -> invalid_arg "direct_matches: not bounded"
  | Some plan ->
    (match Bounded_eval.run src plan with
     | Bounded_eval.Matches ms -> ms
     | Bounded_eval.Relation _ -> assert false)

let decode_matches j =
  match Json.member "matches" j with
  | Some (Json.Arr rows) ->
    Some
      (List.map
         (function
           | Json.Arr cells ->
             Array.of_list
               (List.map
                  (fun c -> match Json.to_int_opt c with Some v -> v | None -> min_int)
                  cells)
           | _ -> [||])
         rows)
  | _ -> None

let response server line =
  match Json.parse (Server.handle_line server line) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "response is not valid JSON: %s" msg

let check_error server line code =
  let j = response server line in
  Helpers.check_true (code ^ ": ok=false") (Json.member "ok" j = Some (Json.Bool false));
  Alcotest.(check (option string))
    (code ^ ": error code") (Some code)
    (Option.bind (Json.member "error" j) Json.to_string_opt)

(* Protocol routing through handle_line, no socket involved. *)
let test_protocol () =
  let server = Server.create ~pool:Pool.sequential (fresh_slot ()) in
  check_error server "not json at all" "parse";
  check_error server "{\"op\":\"query\",}" "parse";
  check_error server "[1,2,3]" "bad_request";
  check_error server "{}" "bad_request";
  check_error server "{\"op\":42}" "bad_request";
  check_error server "{\"op\":\"frobnicate\"}" "bad_request";
  check_error server "{\"op\":\"query\"}" "bad_request";
  check_error server "{\"op\":\"query\",\"pattern\":7}" "bad_request";
  check_error server "{\"op\":\"query\",\"pattern\":\"e 1 2\"}" "parse";
  check_error server "{\"op\":\"query\",\"pattern\":\"n a award\",\"semantics\":\"magic\"}"
    "bad_request";
  check_error server "{\"op\":\"query\",\"pattern\":\"n a award\",\"limit\":-3}" "bad_request";
  check_error server "{\"op\":\"reload\"}" "bad_request";
  (* An uncovered pattern gets the typed unbounded error with the
     EBChk diagnosis, not a crash. *)
  let schema = (Lazy.force ds).W.schema in
  let tbl = (Lazy.force ds).W.table in
  let unb = "n a award\nn m movie\ne a m\n" in
  Helpers.check_false "fixture really is unbounded"
    (Ebchk.check Actualized.Subgraph
       (Pattern_parser.parse_string tbl unb)
       (Lazy.force ds).W.constrs);
  check_error server
    (Json.to_string (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str unb) ]))
    "unbounded";
  (* The happy path answers exactly like direct evaluation and echoes
     the request id. *)
  let req =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str "query"); ("pattern", Json.Str (q0_text ()));
           ("id", Json.Int 7) ])
  in
  let j = response server req in
  Helpers.check_true "ok" (Json.member "ok" j = Some (Json.Bool true));
  Helpers.check_true "id echoed" (Json.member "id" j = Some (Json.Int 7));
  let expected = direct_matches schema (q0_text ()) in
  Helpers.check_true "matches identical" (decode_matches j = Some expected);
  Helpers.check_int "n field" (List.length expected)
    (Option.value ~default:(-1) (Option.bind (Json.member "n" j) Json.to_int_opt));
  (* limit truncates exactly like `bpq run --limit`. *)
  let lim =
    response server
      (Json.to_string
         (Json.Obj
            [ ("op", Json.Str "query"); ("pattern", Json.Str (q0_text ()));
              ("limit", Json.Int 2) ]))
  in
  Helpers.check_true "limited matches are the prefix"
    (decode_matches lim = Some (List.filteri (fun i _ -> i < 2) expected));
  (* stats reflects the served queries. *)
  let st = response server "{\"op\":\"stats\"}" in
  Helpers.check_true "stats ok" (Json.member "ok" st = Some (Json.Bool true));
  Helpers.check_int "served" 2
    (Option.value ~default:(-1) (Option.bind (Json.member "served" st) Json.to_int_opt));
  Helpers.check_true "latency percentiles present"
    (match Json.member "latency" st with
     | Some lat -> Option.bind (Json.member "p50_ms" lat) Json.to_float_opt <> None
     | None -> false);
  (* explain describes the plan for a bounded pattern. *)
  let ex =
    response server
      (Json.to_string
         (Json.Obj [ ("op", Json.Str "explain"); ("pattern", Json.Str (q0_text ())) ]))
  in
  Helpers.check_true "explain has a plan"
    (match Option.bind (Json.member "plan" ex) Json.to_string_opt with
     | Some s -> String.length s > 0
     | None -> false);
  (* shutdown flips the server to refusing with a typed error. *)
  let sd = response server "{\"op\":\"shutdown\"}" in
  Helpers.check_true "stopping" (Json.member "stopping" sd = Some (Json.Bool true));
  Helpers.check_true "stopped" (Server.stopped server);
  check_error server req "shutting_down"

(* max_inflight 0 refuses every query with the typed overloaded error
   (graceful degradation, not a hang or a dropped connection). *)
let test_admission () =
  let server = Server.create ~max_inflight:0 ~pool:Pool.sequential (fresh_slot ()) in
  check_error server
    (Json.to_string (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str (q0_text ())) ]))
    "overloaded";
  let st = response server "{\"op\":\"stats\"}" in
  Helpers.check_int "rejected counted" 1
    (Option.value ~default:(-1) (Option.bind (Json.member "rejected" st) Json.to_int_opt))

(* A query timeout surfaces as the typed timeout error; with the
   zero/negative-budget Timer fix, even a degenerate budget expires on
   its first consultation instead of sneaking one stride of work. *)
let test_query_timeout () =
  let server =
    Server.create ~query_timeout:1e-12 ~pool:Pool.sequential (fresh_slot ())
  in
  check_error server
    (Json.to_string (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str (q0_text ())) ]))
    "timeout";
  let st = response server "{\"op\":\"stats\"}" in
  Helpers.check_int "timeout counted" 1
    (Option.value ~default:(-1) (Option.bind (Json.member "timeouts" st) Json.to_int_opt))

(* ------------------------------------------------------------------ *)
(* Socket-level tests                                                  *)
(* ------------------------------------------------------------------ *)

let with_server ?cache ?max_inflight ?query_timeout ?reload ?(pool = Pool.sequential) slot f =
  let server = Server.create ?cache ?max_inflight ?query_timeout ?reload ~pool slot in
  let path = Filename.temp_file "bpq_serve" ".sock" in
  Sys.remove path;
  let addr = Sock.Unix_path path in
  let lfd = Sock.listen addr in
  let th = Thread.create (fun () -> Server.serve server lfd) () in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Thread.join th;
      Sock.close_listener addr lfd)
    (fun () -> f server addr)

(* Eight concurrent clients, each asking the same workload repeatedly
   over its own connection; every response must be byte-identical to
   the direct answer.  The pool has real worker domains, so this also
   drives queries through Pool.async scheduling. *)
let test_concurrent_clients () =
  let schema = (Lazy.force ds).W.schema in
  let expected = direct_matches schema (q0_text ()) in
  let pool = Pool.create 2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  with_server ~cache:(Qcache.create ()) ~pool (fresh_slot ()) @@ fun server addr ->
  let clients = 8 and rounds = 5 in
  let failures = Atomic.make 0 in
  let threads =
    List.init clients (fun _ ->
        Thread.create
          (fun () ->
            let conn = Server.Client.connect addr in
            Fun.protect ~finally:(fun () -> Server.Client.close conn) @@ fun () ->
            for _ = 1 to rounds do
              let j = Server.Client.query conn (q0_text ()) in
              if decode_matches j <> Some expected then Atomic.incr failures
            done)
          ())
  in
  List.iter Thread.join threads;
  Helpers.check_int "all responses identical to direct evaluation" 0 (Atomic.get failures);
  let st = response server "{\"op\":\"stats\"}" in
  Helpers.check_int "every request served" (clients * rounds)
    (Option.value ~default:(-1) (Option.bind (Json.member "served" st) Json.to_int_opt))

(* A client that vanishes — mid-request, or before reading its answer —
   must cost the server nothing but that one connection: its in-flight
   query still completes (the served counter ticks), and other clients
   keep getting correct answers. *)
let test_client_disconnect () =
  let schema = (Lazy.force ds).W.schema in
  let expected = direct_matches schema (q0_text ()) in
  with_server (fresh_slot ()) @@ fun server addr ->
  (* Vanish without reading the response. *)
  let c1 = Server.Client.connect addr in
  Server.Client.send c1
    (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str (q0_text ())) ]);
  Server.Client.close c1;
  (* Vanish mid-line (no terminating newline). *)
  let c2 = Server.Client.connect addr in
  (match c2 with
   | _ ->
     let fd = Sock.connect addr in
     Sock.write_all fd "{\"op\":\"qu" 0 9;
     (try Unix.close fd with Unix.Unix_error _ -> ()));
  Server.Client.close c2;
  (* The dropped client's query still ran to completion. *)
  let rec wait_served tries =
    let st = response server "{\"op\":\"stats\"}" in
    let served =
      Option.value ~default:0 (Option.bind (Json.member "served" st) Json.to_int_opt)
    in
    if served >= 1 then ()
    else if tries = 0 then Alcotest.fail "dropped client's query never completed"
    else begin
      Thread.delay 0.05;
      wait_served (tries - 1)
    end
  in
  wait_served 100;
  (* And the server is fine for everyone else. *)
  let c3 = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close c3) @@ fun () ->
  let j = Server.Client.query c3 (q0_text ()) in
  Helpers.check_true "survivor gets the right answer" (decode_matches j = Some expected);
  Helpers.check_false "server still up" (Server.stopped server)

(* Live reload through the snapshot lineage, mid-load: the new
   generation answers identically, the old generation's close runs once
   its queries drain, and the plan-tier cache stays warm because
   Schema.save/load preserves the stamp. *)
let test_live_reload () =
  let d = Lazy.force ds in
  let snap = Filename.temp_file "bpq_serve" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
  @@ fun () ->
  Schema.save d.W.schema snap;
  let closes = Atomic.make 0 in
  let load_slot () =
    let schema, _ = Schema.load (Label.create_table ()) snap in
    slot_of_schema ~close:(fun () -> Atomic.incr closes) schema
  in
  let cache = Qcache.create () in
  let text = q0_text () in
  let expected = direct_matches d.W.schema text in
  with_server ~cache ~reload:load_slot (load_slot ()) @@ fun server addr ->
  let conn = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close conn) @@ fun () ->
  (* Warm the plan tier. *)
  let j1 = Server.Client.query conn text in
  Helpers.check_true "pre-reload answer" (decode_matches j1 = Some expected);
  let misses_before = (Qcache.stats cache).Qcache.plan_misses in
  let stamp1 =
    Option.value ~default:(-1) (Option.bind (Json.member "stamp" j1) Json.to_int_opt)
  in
  (* Reload while another client keeps querying — nobody may observe a
     wrong answer or an error during the swap. *)
  let racing_failures = Atomic.make 0 in
  let racer =
    Thread.create
      (fun () ->
        let c = Server.Client.connect addr in
        Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
        for _ = 1 to 20 do
          let j = Server.Client.query c text in
          if decode_matches j <> Some expected then Atomic.incr racing_failures
        done)
      ()
  in
  let r = Server.Client.reload conn in
  Helpers.check_true "reload ok" (Json.member "ok" r = Some (Json.Bool true));
  Thread.join racer;
  Helpers.check_int "no wrong answers during reload" 0 (Atomic.get racing_failures);
  (* New generation: same stamp (same snapshot lineage), same answers. *)
  let j2 = Server.Client.query conn text in
  Helpers.check_true "post-reload answer" (decode_matches j2 = Some expected);
  let stamp2 =
    Option.value ~default:(-2) (Option.bind (Json.member "stamp" j2) Json.to_int_opt)
  in
  Helpers.check_int "stamp lineage preserved" stamp1 stamp2;
  (* The plan tier survived the reload: the post-reload query planned
     from cache, not from scratch. *)
  Helpers.check_int "no new plan misses after reload" misses_before
    ((Qcache.stats cache).Qcache.plan_misses);
  (* The retired generation was closed exactly once after draining. *)
  let rec wait_close tries =
    if Atomic.get closes >= 1 then ()
    else if tries = 0 then Alcotest.fail "old generation never closed"
    else begin
      Thread.delay 0.05;
      wait_close (tries - 1)
    end
  in
  wait_close 100;
  Helpers.check_int "old generation closed once" 1 (Atomic.get closes);
  let st = response server "{\"op\":\"stats\"}" in
  Helpers.check_int "reload counted" 1
    (Option.value ~default:(-1) (Option.bind (Json.member "reloads" st) Json.to_int_opt))

(* ------------------------------------------------------------------ *)
(* Single-flight coalescing                                            *)
(* ------------------------------------------------------------------ *)

(* A source whose index lookups block on a gate: holds the leader's
   evaluation open deterministically while followers pile onto the
   flight.  Only lookups gate — planning and pattern parsing never
   touch them, so the requests reach the flight table unimpeded. *)
let gated_source schema =
  let base = Exec.source_of_schema schema in
  let mu = Mutex.create () and cv = Condition.create () in
  let opened = ref false in
  let wait () =
    Mutex.lock mu;
    while not !opened do
      Condition.wait cv mu
    done;
    Mutex.unlock mu
  in
  let release () =
    Mutex.lock mu;
    opened := true;
    Condition.broadcast cv;
    Mutex.unlock mu
  in
  ( { base with
      Exec.lookup = (fun c k -> wait (); base.Exec.lookup c k);
      lookup_iter = (fun c k f -> wait (); base.Exec.lookup_iter c k f) },
    release )

let coalescing_member st name =
  Option.value ~default:(-1)
    (Option.bind
       (Option.bind (Json.member "coalescing" st) (Json.member name))
       Json.to_int_opt)

let rec wait_for ?(tries = 400) msg pred =
  if pred () then ()
  else if tries = 0 then Alcotest.fail msg
  else begin
    Thread.delay 0.01;
    wait_for ~tries:(tries - 1) msg pred
  end

let query_req () =
  Json.to_string
    (Json.Obj [ ("op", Json.Str "query"); ("pattern", Json.Str (q0_text ())) ])

(* Five identical concurrent requests cost exactly one evaluation: the
   gate pins the leader inside its lookup until stats shows the other
   four waiting as followers, so the schedule is deterministic. *)
let test_coalescing_dedup () =
  let d = Lazy.force ds in
  let expected = direct_matches d.W.schema (q0_text ()) in
  let src, release = gated_source d.W.schema in
  (* result_capacity 0 disables the result tier, so result_misses
     counts actual evaluations. *)
  let cache = Qcache.create ~result_capacity:0 () in
  let server =
    Server.create ~cache ~pool:Pool.sequential
      { Server.src; costs = None; close = ignore }
  in
  let req = query_req () in
  let answers = Array.make 5 None in
  let threads =
    List.init 5 (fun i ->
        Thread.create (fun () -> answers.(i) <- decode_matches (response server req)) ())
  in
  wait_for "followers never joined the flight" (fun () ->
      coalescing_member (response server "{\"op\":\"stats\"}") "followers" = 4);
  release ();
  List.iter Thread.join threads;
  Array.iter
    (fun a -> Helpers.check_true "coalesced answer identical" (a = Some expected))
    answers;
  let st = response server "{\"op\":\"stats\"}" in
  Helpers.check_int "one leader" 1 (coalescing_member st "leaders");
  Helpers.check_int "four followers" 4 (coalescing_member st "followers");
  Helpers.check_int "no redispatches" 0 (coalescing_member st "redispatches");
  Helpers.check_int "all five served" 5
    (Option.value ~default:(-1) (Option.bind (Json.member "served" st) Json.to_int_opt));
  Helpers.check_int "exactly one evaluation" 1 (Qcache.stats cache).Qcache.result_misses

(* Byte-identity with coalescing on and off, across pool shapes, under
   concurrent clients mixing limits (the limit is part of the flight
   key, so a limited and an unlimited request must never share). *)
let test_coalescing_identity () =
  let d = Lazy.force ds in
  let text = q0_text () in
  let expected = direct_matches d.W.schema text in
  List.iter
    (fun jobs ->
      let pool = if jobs = 0 then Pool.sequential else Pool.create jobs in
      Fun.protect ~finally:(fun () -> if jobs > 0 then Pool.shutdown pool)
      @@ fun () ->
      List.iter
        (fun coalesce ->
          let server =
            Server.create ~cache:(Qcache.create ()) ~coalesce ~pool (fresh_slot ())
          in
          let failures = Atomic.make 0 in
          let threads =
            List.init 6 (fun i ->
                Thread.create
                  (fun () ->
                    for r = 1 to 4 do
                      let limit = if (i + r) mod 2 = 0 then None else Some 2 in
                      let fields =
                        [ ("op", Json.Str "query"); ("pattern", Json.Str text) ]
                        @
                        match limit with
                        | None -> []
                        | Some l -> [ ("limit", Json.Int l) ]
                      in
                      let j = response server (Json.to_string (Json.Obj fields)) in
                      let want =
                        match limit with
                        | None -> expected
                        | Some l -> List.filteri (fun k _ -> k < l) expected
                      in
                      if decode_matches j <> Some want then Atomic.incr failures
                    done)
                  ())
          in
          List.iter Thread.join threads;
          Helpers.check_int
            (Printf.sprintf "identical answers (jobs=%d coalesce=%b)" jobs coalesce)
            0 (Atomic.get failures))
        [ true; false ])
    [ 0; 2 ]

(* Reload mid-flight: followers that coalesced behind a leader before a
   snapshot swap must re-evaluate on the new generation — never observe
   the pre-swap result — while the leader keeps its own answer, valid
   for the slot it has pinned. *)
let test_coalescing_reload () =
  let d = Lazy.force ds in
  let text = q0_text () in
  let expected1 = direct_matches d.W.schema text in
  (* The post-swap snapshot drops one edge of the first match
     (movie -> award), so its answer observably differs. *)
  let m = List.hd expected1 in
  let delta = { Digraph.empty_delta with removed_edges = [ (m.(2), m.(0)) ] } in
  let graph2 = Digraph.apply_delta d.W.graph delta in
  let schema2 = Schema.build graph2 d.W.constrs in
  let expected2 = direct_matches schema2 text in
  Helpers.check_true "the swap changes the answer" (expected1 <> expected2);
  let src1, release = gated_source d.W.schema in
  let server =
    Server.create
      ~cache:(Qcache.create ~result_capacity:0 ())
      ~reload:(fun () -> slot_of_schema schema2)
      ~pool:Pool.sequential
      { Server.src = src1; costs = None; close = ignore }
  in
  let req = query_req () in
  let leader_ans = ref None in
  let lt = Thread.create (fun () -> leader_ans := decode_matches (response server req)) () in
  wait_for "leader never took off" (fun () ->
      coalescing_member (response server "{\"op\":\"stats\"}") "leaders" = 1);
  let follower_ans = Array.make 2 None in
  let fts =
    List.init 2 (fun i ->
        Thread.create
          (fun () -> follower_ans.(i) <- decode_matches (response server req))
          ())
  in
  wait_for "followers never joined" (fun () ->
      coalescing_member (response server "{\"op\":\"stats\"}") "followers" = 2);
  (* Swap generations under the leader's feet, then let it land. *)
  let r = response server "{\"op\":\"reload\"}" in
  Helpers.check_true "reload ok" (Json.member "ok" r = Some (Json.Bool true));
  release ();
  Thread.join lt;
  List.iter Thread.join fts;
  Helpers.check_true "leader answers from its pinned pre-swap slot"
    (!leader_ans = Some expected1);
  Array.iter
    (fun a ->
      Helpers.check_false "follower never observes the pre-swap answer"
        (a = Some expected1);
      Helpers.check_true "follower re-evaluated on the new generation"
        (a = Some expected2))
    follower_ans;
  let st = response server "{\"op\":\"stats\"}" in
  Helpers.check_int "both followers re-dispatched" 2 (coalescing_member st "redispatches")

(* The metrics op carries a Prometheus 0.0.4 page inside the JSON
   protocol; spot-check shape and a few families, via handle_line and
   the client helper both. *)
let test_metrics () =
  let server = Server.create ~cache:(Qcache.create ()) ~pool:Pool.sequential (fresh_slot ()) in
  ignore (response server (query_req ()));
  let j = response server "{\"op\":\"metrics\"}" in
  Helpers.check_true "metrics ok" (Json.member "ok" j = Some (Json.Bool true));
  Alcotest.(check (option string))
    "content type" (Some "text/plain; version=0.0.4")
    (Option.bind (Json.member "content_type" j) Json.to_string_opt);
  let text =
    match Option.bind (Json.member "text" j) Json.to_string_opt with
    | Some s -> s
    | None -> Alcotest.fail "metrics has no text"
  in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle -> Helpers.check_true ("page contains " ^ needle) (contains needle))
    [ "# TYPE bpq_queries_served_total counter";
      "bpq_queries_served_total 1";
      "bpq_coalesce_followers_total 0";
      "bpq_cache_hits_total{tier=\"plan\"}";
      "bpq_query_latency_seconds{quantile=\"0.99\"}";
      "bpq_query_latency_seconds_count 1";
      "bpq_inflight 0" ];
  (* And over a socket through the client helper. *)
  with_server (fresh_slot ()) @@ fun _server addr ->
  let conn = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close conn) @@ fun () ->
  let j = Server.Client.metrics conn in
  Helpers.check_true "client metrics ok" (Json.member "ok" j = Some (Json.Bool true))

(* The same socket speaks HTTP when the first line is a GET: a plain
   Prometheus scrape of /metrics works with no bridge, and any other
   path 404s.  JSON clients are unaffected. *)
let test_http_metrics () =
  with_server (fresh_slot ()) @@ fun _server addr ->
  let scrape path =
    let fd = Sock.connect addr in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: x\r\nAccept: */*\r\n\r\n" path in
    Sock.write_all fd req 0 (String.length req);
    let b = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec drain () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes b chunk 0 n;
        drain ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
    in
    drain ();
    Buffer.contents b
  in
  let contains hay sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = sub || go (i + 1)) in
    go 0
  in
  let page = scrape "/metrics" in
  Helpers.check_true "http 200" (contains page "HTTP/1.0 200 OK");
  Helpers.check_true "prometheus content type"
    (contains page "Content-Type: text/plain; version=0.0.4");
  Helpers.check_true "served counter present" (contains page "bpq_queries_served_total");
  let missing = scrape "/other" in
  Helpers.check_true "http 404 elsewhere" (contains missing "HTTP/1.0 404");
  (* A JSON client on a fresh connection still gets the JSON protocol. *)
  let conn = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close conn) @@ fun () ->
  let j = Server.Client.metrics conn in
  Helpers.check_true "json metrics still ok" (Json.member "ok" j = Some (Json.Bool true))

(* ------------------------------------------------------------------ *)
(* Replies written straight into the buffer                            *)
(* ------------------------------------------------------------------ *)

(* The tree encoding the direct writer replaced, kept as its oracle. *)
let matches_json ms =
  Json.Arr (List.map (fun m -> Json.Arr (List.map (fun v -> Json.Int v) (Array.to_list m))) ms)

let relation_json sim =
  Json.Arr
    (Array.to_list
       (Array.map
          (fun vs -> Json.Arr (List.map (fun v -> Json.Int v) (Array.to_list vs)))
          sim))

let answer_fields = function
  | Bounded_eval.Matches ms ->
    [ ("matches", matches_json ms); ("n", Json.Int (List.length ms)) ]
  | Bounded_eval.Relation sim ->
    [ ("relation", relation_json sim);
      ("n", Json.Int (Array.fold_left (fun acc vs -> acc + Array.length vs) 0 sim)) ]

let tree_reply ?id ?limit sem ~elapsed ~stamp answer =
  let answer =
    match (answer, limit) with
    | Bounded_eval.Matches ms, Some l -> Bounded_eval.Matches (List.filteri (fun i _ -> i < l) ms)
    | answer, _ -> answer
  in
  let sem_name = match sem with Actualized.Subgraph -> "subgraph" | Actualized.Simulation -> "simulation" in
  Json.to_string
    (Json.Obj
       ((match id with None -> [] | Some id -> [ ("id", id) ])
        @ (("ok", Json.Bool true) :: ("semantics", Json.Str sem_name) :: answer_fields answer)
        @ [ ("elapsed_ms", Json.Float (elapsed *. 1000.0)); ("stamp", Json.Int stamp) ]))

let direct_reply ?id ?limit sem ~elapsed ~stamp answer =
  let buf = Buffer.create 64 in
  Server.add_reply buf ?id ?limit sem ~elapsed ~stamp answer;
  Buffer.contents buf

let reply_case_gen =
  let open QCheck2.Gen in
  let node = oneof [ int_range 0 20; int_range 0 10_000_000; int ] in
  let answer =
    oneof
      [ (let* k = int_range 1 5 in
         map
           (fun ms -> Bounded_eval.Matches ms)
           (list_size (int_range 0 12) (array_size (return k) node)));
        map
          (fun rel -> Bounded_eval.Relation rel)
          (array_size (int_range 0 5) (array_size (int_range 0 6) node)) ]
  in
  let id =
    opt
      (oneof
         [ map (fun i -> Json.Int i) int;
           map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 8));
           return (Json.Arr [ Json.Null; Json.Bool true ]) ])
  in
  tup5 answer id (opt (int_range 0 14))
    (oneofl [ Actualized.Subgraph; Actualized.Simulation ])
    (pair (float_range 0.0 2.0) int)

let direct_reply_matches_tree =
  Helpers.qcheck ~count:500 ~seed:42 "direct reply writer = tree encoding" reply_case_gen
    (fun (answer, id, limit, sem, (elapsed, stamp)) ->
      direct_reply ?id ?limit sem ~elapsed ~stamp answer
      = tree_reply ?id ?limit sem ~elapsed ~stamp answer)

let test_direct_reply_empty () =
  List.iter
    (fun (answer, id, limit) ->
      Alcotest.(check string) "empty answer"
        (tree_reply ?id ?limit Actualized.Subgraph ~elapsed:0.25 ~stamp:3 answer)
        (direct_reply ?id ?limit Actualized.Subgraph ~elapsed:0.25 ~stamp:3 answer))
    [ (Bounded_eval.Matches [], None, None);
      (Bounded_eval.Matches [], Some (Json.Int 1), Some 0);
      (Bounded_eval.Matches [ [| 1; 2 |] ], None, Some 0);
      (Bounded_eval.Relation [||], Some (Json.Str "x"), None);
      (Bounded_eval.Relation [| [||]; [||] |], None, Some 1) ]

(* ------------------------------------------------------------------ *)
(* Result-tier hits on the connection thread                           *)
(* ------------------------------------------------------------------ *)

(* A reply with its elapsed time blanked: the only field that differs
   between two correct replies to the same request. *)
let strip_elapsed reply =
  let key = "\"elapsed_ms\":" in
  let n = String.length key in
  let rec find i =
    if i + n > String.length reply then reply
    else if String.sub reply i n = key then begin
      let j = ref (i + n) in
      while !j < String.length reply && reply.[!j] <> ',' && reply.[!j] <> '}' do
        incr j
      done;
      String.sub reply 0 (i + n) ^ "_" ^ String.sub reply !j (String.length reply - !j)
    end
    else find (i + 1)
  in
  find 0

(* Raw reply lines over a socket, so the bytes are the connection
   thread's, not a re-encoding. *)
let raw_rpc fd rd line =
  Sock.write_line fd line;
  match Sock.read_line rd with
  | Some reply -> strip_elapsed reply
  | None -> Alcotest.fail "server closed the connection"

let with_raw_conn addr f =
  let fd = Sock.connect addr in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () -> f (raw_rpc fd (Sock.reader fd))

let query_line ?id ?limit ?semantics text =
  Json.to_string
    (Json.Obj
       ([ ("op", Json.Str "query"); ("pattern", Json.Str text) ]
        @ (match id with Some i -> [ ("id", Json.Int i) ] | None -> [])
        @ (match limit with Some l -> [ ("limit", Json.Int l) ] | None -> [])
        @ match semantics with Some s -> [ ("semantics", Json.Str s) ] | None -> []))

let cache_counts cache =
  let s = Qcache.stats cache in
  (s.Qcache.result_misses, s.Qcache.result_hits, s.Qcache.result_stale)

let stats_cache_counts rpc =
  match Json.parse (rpc "{\"op\":\"stats\"}") with
  | Ok st ->
    let c name =
      Option.value ~default:(-1)
        (Option.bind (Option.bind (Json.member "cache" st) (Json.member name)) Json.to_int_opt)
    in
    (c "result_misses", c "result_hits")
  | Error e -> Alcotest.fail e

let test_hit_byte_identical () =
  let cache = Qcache.create () in
  with_server ~cache ~pool:Pool.sequential (fresh_slot ()) @@ fun _ addr ->
  with_raw_conn addr @@ fun rpc ->
  let line = query_line ~id:5 (q0_text ()) in
  let miss = rpc line in
  Alcotest.(check (pair int int)) "stats.cache after the first" (1, 0) (stats_cache_counts rpc);
  let hit = rpc line in
  Alcotest.(check (pair int int)) "stats.cache after the repeat" (1, 1) (stats_cache_counts rpc);
  Alcotest.(check string) "hit bytes = miss bytes" miss hit;
  Alcotest.(check string) "memoised bytes reused" miss (rpc line)

(* A limit on a hit encodes the entry's prefix: the same bytes as the
   limited miss and as a server without any cache, before and after the
   unlimited reply has memoised the full answer. *)
let test_hit_limit () =
  let text = q0_text () in
  let reference =
    with_server (fresh_slot ()) @@ fun _ addr ->
    with_raw_conn addr @@ fun rpc ->
    (rpc (query_line ~limit:2 text), rpc (query_line text))
  in
  let cache = Qcache.create () in
  with_server ~cache (fresh_slot ()) @@ fun _ addr ->
  with_raw_conn addr @@ fun rpc ->
  let limited, full = reference in
  List.iter
    (fun (what, limit, want) ->
      Alcotest.(check string) what want (rpc (query_line ?limit text)))
    [ ("limited miss", Some 2, limited);
      ("limited hit", Some 2, limited);
      ("unlimited hit", None, full);
      ("unlimited memoised hit", None, full);
      ("limited hit after memo", Some 2, limited) ];
  Alcotest.(check (triple int int int)) "one miss, four hits" (1, 4, 0) (cache_counts cache)

(* A same-lineage reload keeps the result tier warm: the first query on
   the new generation is a hit. *)
let test_hit_across_reload () =
  let d = Lazy.force ds in
  let snap = Filename.temp_file "bpq_serve" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
  @@ fun () ->
  Schema.save d.W.schema snap;
  let load_slot () = slot_of_schema (fst (Schema.load (Label.create_table ()) snap)) in
  let cache = Qcache.create () in
  with_server ~cache ~reload:load_slot (load_slot ()) @@ fun _ addr ->
  with_raw_conn addr @@ fun rpc ->
  let line = query_line (q0_text ()) in
  let before = rpc line in
  Helpers.check_true "reload ok"
    (match Json.parse (rpc "{\"op\":\"reload\"}") with
     | Ok j -> Json.member "ok" j = Some (Json.Bool true)
     | Error _ -> false);
  Alcotest.(check string) "same bytes after the reload" before (rpc line);
  Alcotest.(check (triple int int int)) "the post-reload query hit" (1, 1, 0) (cache_counts cache)

(* Sequential and two-domain servers send the same bytes, on misses and
   on hits, for every kind of reply. *)
let test_hit_jobs_identical () =
  let text = q0_text () in
  let unb = "n a award\nn m movie\ne a m\n" in
  let lines =
    [ query_line text; query_line ~id:1 text; query_line ~limit:1 text;
      query_line ~semantics:"simulation" text; query_line ~id:2 ~limit:0 unb;
      query_line text; query_line ~semantics:"simulation" ~limit:1 text ]
  in
  let replies pool =
    with_server ~cache:(Qcache.create ()) ~pool (fresh_slot ()) @@ fun _ addr ->
    with_raw_conn addr @@ fun rpc ->
    let once = List.map rpc lines in
    (once, List.map rpc lines)
  in
  let seq_miss, seq_hit = replies Pool.sequential in
  let pool = Pool.create 2 in
  let par_miss, par_hit =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> replies pool)
  in
  Alcotest.(check (list string)) "hits = misses (-j 1)" seq_miss seq_hit;
  Alcotest.(check (list string)) "-j 2 = -j 1 (misses)" seq_miss par_miss;
  Alcotest.(check (list string)) "-j 2 = -j 1 (hits)" seq_miss par_hit

let suite =
  [ Alcotest.test_case "protocol routing" `Quick test_protocol;
    Alcotest.test_case "admission control" `Quick test_admission;
    Alcotest.test_case "query timeout" `Quick test_query_timeout;
    Alcotest.test_case "8 concurrent clients, identical answers" `Quick test_concurrent_clients;
    Alcotest.test_case "client disconnect survival" `Quick test_client_disconnect;
    Alcotest.test_case "live reload keeps the cache warm" `Quick test_live_reload;
    Alcotest.test_case "single-flight dedup: 5 requests, 1 evaluation" `Quick
      test_coalescing_dedup;
    Alcotest.test_case "coalescing identity across pools and limits" `Quick
      test_coalescing_identity;
    Alcotest.test_case "mid-flight reload: followers re-dispatch" `Quick
      test_coalescing_reload;
    Alcotest.test_case "prometheus metrics page" `Quick test_metrics;
    Alcotest.test_case "http GET /metrics scrape" `Quick test_http_metrics;
    direct_reply_matches_tree;
    Alcotest.test_case "direct reply: empty answers" `Quick test_direct_reply_empty;
    Alcotest.test_case "result hit: byte-identical, 1 miss then 1 hit" `Quick
      test_hit_byte_identical;
    Alcotest.test_case "result hit: limit prefix bytes" `Quick test_hit_limit;
    Alcotest.test_case "result hit: survives same-lineage reload" `Quick test_hit_across_reload;
    Alcotest.test_case "result hit: -j 1 and -j 2 identical" `Quick test_hit_jobs_identical ]
