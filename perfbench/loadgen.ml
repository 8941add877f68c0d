(* The load generator: one process, one thread, at most two connections
   to the server, driven by [Unix.select].

   Requests are pipelined: the server answers one connection's lines in
   order, so each connection keeps a FIFO of outstanding requests and a
   reply completes its head.  Sends never block (non-blocking sockets
   with per-connection output buffers), so in the open-loop phase a
   request leaves at its scheduled time whatever the server is doing;
   how late the generator itself ran is recorded per request.

   Every event the generator observes (a send, a reply) takes the next
   value of one counter.  The oracle uses these sequence numbers, not
   clock readings, to bracket a read between the write acknowledgements
   it may or may not have seen. *)

open Inputs

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;  (* bytes not yet written *)
  mutable out_pos : int;
  inbuf : Buffer.t;  (* partial reply line *)
  pending : int Queue.t;  (* op indices awaiting a reply, in send order *)
}

type record = {
  mutable sent : float;  (* seconds from the phase start *)
  mutable recv : float;
  mutable send_seq : int;
  mutable recv_seq : int;
  mutable on_conn : int;
  mutable reply : string;  (* "" until answered *)
}

let now = Unix.gettimeofday

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; out = Buffer.create 65536; out_pos = 0; inbuf = Buffer.create 65536; pending = Queue.create () }

let flush c =
  let len = Buffer.length c.out - c.out_pos in
  if len > 0 then begin
    match Unix.write_substring c.fd (Buffer.contents c.out) c.out_pos len with
    | n ->
      c.out_pos <- c.out_pos + n;
      if c.out_pos = Buffer.length c.out then begin
        Buffer.clear c.out;
        c.out_pos <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  end

let chunk = Bytes.create 65536

type state = {
  conns : conn array;
  lines : string array;  (* request lines, stream order *)
  recs : record array;
  mutable seq : int;
  mutable t0 : float;  (* phase start *)
  mutable on_reply : int -> unit;
}

let tick st =
  st.seq <- st.seq + 1;
  st.seq

let send st ci i =
  let c = st.conns.(ci) in
  Buffer.add_string c.out st.lines.(i);
  Buffer.add_char c.out '\n';
  let r = st.recs.(i) in
  r.sent <- now () -. st.t0;
  r.send_seq <- tick st;
  r.on_conn <- ci;
  Queue.push i c.pending;
  flush c

(* Read what is available on connection [ci] and complete requests. *)
let drain_input st ci =
  let c = st.conns.(ci) in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "server closed the connection"
  | n ->
    let t = now () -. st.t0 in
    let start = ref 0 in
    for k = 0 to n - 1 do
      if Bytes.get chunk k = '\n' then begin
        Buffer.add_subbytes c.inbuf chunk !start (k - !start);
        start := k + 1;
        let i = Queue.pop c.pending in
        let r = st.recs.(i) in
        r.recv <- t;
        r.recv_seq <- tick st;
        r.reply <- Buffer.contents c.inbuf;
        Buffer.clear c.inbuf;
        st.on_reply i
      end
    done;
    Buffer.add_subbytes c.inbuf chunk !start (n - !start)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let outstanding st = Array.fold_left (fun acc c -> acc + Queue.length c.pending) 0 st.conns

(* One select round, waiting at most [timeout] seconds. *)
let poll st timeout =
  let fds = Array.to_list (Array.map (fun c -> c.fd) st.conns) in
  let wfds =
    Array.to_list st.conns
    |> List.filter (fun c -> Buffer.length c.out > c.out_pos)
    |> List.map (fun c -> c.fd)
  in
  match Unix.select fds wfds [] (Float.max 0.0 timeout) with
  | r, w, _ ->
    Array.iteri
      (fun ci c ->
        if List.memq c.fd w then flush c;
        if List.memq c.fd r then drain_input st ci)
      st.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Wait for every outstanding reply, up to [limit] seconds. *)
let wait_all st limit =
  let stop = now () +. limit in
  while outstanding st > 0 && now () < stop do
    poll st (stop -. now ())
  done

(* Closed loop over per-connection lists: each connection keeps [depth]
   requests outstanding, sending the next one whenever one is answered,
   until [deadline] (seconds from the phase start) or its list runs out. *)
let closed_loop st ~depth (lists : int list array) deadline =
  let rest = Array.copy lists in
  let send_next ci =
    match rest.(ci) with
    | i :: tl when now () -. st.t0 < deadline ->
      rest.(ci) <- tl;
      send st ci i
    | _ -> rest.(ci) <- []
  in
  st.on_reply <- (fun i -> send_next st.recs.(i).on_conn);
  Array.iteri (fun ci _ -> for _ = 1 to depth do send_next ci done) st.conns;
  while outstanding st > 0 do
    poll st 1.0
  done;
  st.on_reply <- ignore

(* Open loop: send each request at its scheduled offset.  Writes and
   compacts go to connection 0; a read goes to the connection with fewer
   requests outstanding (ties to connection 1, keeping it off the
   writer's queue). *)
let open_loop st (ops : Inputs.op array) (idx : int array) =
  let n = Array.length idx in
  let next = ref 0 in
  while !next < n do
    let t = now () -. st.t0 in
    while !next < n && ops.(idx.(!next)).at <= t do
      let i = idx.(!next) in
      let ci =
        match ops.(i).kind with
        | Write | Compact -> 0
        | Read ->
          if Queue.length st.conns.(0).pending < Queue.length st.conns.(1).pending then 0 else 1
      in
      send st ci i;
      incr next
    done;
    if !next < n then poll st (ops.(idx.(!next)).at -. (now () -. st.t0))
  done

(* Requests each connection keeps outstanding in the closed loop: enough
   that the server always has the next line buffered, so the phase
   measures its processing rather than the wake-ups between requests. *)
let closed_depth = 8

let run ~sock ~(ops : Inputs.op array) ~closed_seconds ~out_dir =
  Bpq_util.Sock.ignore_sigpipe ();
  let lines = Array.map (fun o -> Bpq_util.Jsonx.to_string o.req) ops in
  let recs =
    Array.map (fun _ -> { sent = nan; recv = nan; send_seq = 0; recv_seq = 0; on_conn = -1; reply = "" }) ops
  in
  let st = { conns = [| connect sock; connect sock |]; lines; recs; seq = 0; t0 = now (); on_reply = ignore } in
  let phase p = List.filter (fun i -> ops.(i).phase = p) (List.init (Array.length ops) Fun.id) in
  let by_conn l = Array.init 2 (fun ci -> List.filter (fun i -> ops.(i).conn = ci) l) in
  (* Each phase's times count from its own start. *)
  let phase_run f =
    st.t0 <- now ();
    f ()
  in
  phase_run (fun () -> closed_loop st ~depth:1 (by_conn (phase "warm")) infinity);
  phase_run (fun () ->
      open_loop st ops (Array.of_list (phase "open"));
      wait_all st 120.0);
  phase_run (fun () -> closed_loop st ~depth:closed_depth (by_conn (phase "closed")) closed_seconds);
  Array.iter (fun c -> Unix.close c.fd) st.conns;
  (* Results, written after the timed phases. *)
  Out_channel.with_open_text (Filename.concat out_dir "results.tsv") (fun oc ->
      Array.iteri
        (fun i (r : record) ->
          let o = ops.(i) in
          if r.send_seq > 0 then begin
            let status, elapsed =
              if r.reply = "" then ("lost", nan)
              else
                match Bpq_util.Jsonx.parse r.reply with
                | Error _ -> ("malformed", nan)
                | Ok j ->
                  let el =
                    Option.value ~default:nan
                      (Option.bind (Bpq_util.Jsonx.member "elapsed_ms" j) Bpq_util.Jsonx.to_float_opt)
                  in
                  (match Bpq_util.Jsonx.member "ok" j with
                   | Some (Bpq_util.Jsonx.Bool true) -> ("ok", el)
                   | _ ->
                     ( (match Bpq_util.Jsonx.member "error" j with
                        | Some (Bpq_util.Jsonx.Str e) -> e
                        | _ -> "error"),
                       el ))
            in
            Printf.fprintf oc "%d\t%s\t%s\t%d\t%.9f\t%.9f\t%.9f\t%d\t%d\t%s\t%.6f\n" i o.phase
              (kind_name o.kind) r.on_conn o.at r.sent r.recv r.send_seq r.recv_seq status elapsed
          end)
        recs);
  Out_channel.with_open_text (Filename.concat out_dir "replies.txt") (fun oc ->
      Array.iteri
        (fun i (r : record) ->
          if r.send_seq > 0 then Printf.fprintf oc "%d\t%s\n" i r.reply)
        recs)
