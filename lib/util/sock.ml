(* Socket plumbing for the serve daemon and its clients: address
   parsing, listeners, per-connection timeouts, line-framed reads, and
   the exception taxonomy a long-lived server needs (which errors mean
   "this client went away" vs "this connection idled out" vs "real
   problem").

   SIGPIPE: a client that disconnects mid-response turns the server's
   next write into a SIGPIPE, whose default disposition kills the whole
   process — every other in-flight query with it.  {!ignore_sigpipe}
   turns that into a per-write [EPIPE], which {!is_disconnect}
   classifies so the connection handler can drop just that client. *)

type addr =
  | Unix_path of string
  | Tcp of string * int

let to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let parse s =
  let unix_of p = if p = "" then Error "empty unix socket path" else Ok (Unix_path p) in
  match String.index_opt s ':' with
  | None ->
    if String.contains s '/' then unix_of s
    else Error (Printf.sprintf "cannot parse %S (expected unix:PATH, PATH, HOST:PORT or :PORT)" s)
  | Some i ->
    let before = String.sub s 0 i in
    let after = String.sub s (i + 1) (String.length s - i - 1) in
    if before = "unix" then unix_of after
    else (
      match int_of_string_opt after with
      | Some p when p > 0 && p < 65536 ->
        Ok (Tcp ((if before = "" then "127.0.0.1" else before), p))
      | _ -> Error (Printf.sprintf "invalid port in %S" s))

let ignore_sigpipe () =
  (* No SIGPIPE on Windows; [Sys.set_signal] would raise. *)
  if Sys.os_type = "Unix" then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ ->
        (try (Unix.gethostbyname host).Unix.h_addr_list.(0)
         with Not_found | Invalid_argument _ ->
           failwith (Printf.sprintf "cannot resolve host %S" host))
    in
    Unix.ADDR_INET (ip, port)

let domain_of = function Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET

let listen ?(backlog = 64) addr =
  (match addr with
   | Unix_path p when Sys.file_exists p ->
     (* A stale socket file from a previous run blocks bind; only ever
        remove actual sockets, never a regular file at that path. *)
     (match (Unix.stat p).Unix.st_kind with
      | Unix.S_SOCK -> (try Unix.unlink p with Unix.Unix_error _ -> ())
      | _ -> failwith (Printf.sprintf "%s exists and is not a socket" p))
   | _ -> ());
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (try
     (match addr with Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true | Unix_path _ -> ());
     Unix.bind fd (sockaddr_of addr);
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let close_listener addr fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match addr with
  | Unix_path p -> (try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ()

let connect addr =
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let set_timeouts ?read ?write fd =
  let set opt = function
    | Some s when s > 0.0 -> Unix.setsockopt_float fd opt s
    | Some _ | None -> ()
  in
  set Unix.SO_RCVTIMEO read;
  set Unix.SO_SNDTIMEO write

(* Which exceptions mean "the peer went away"?  EPIPE and ECONNRESET are
   the classic mid-stream deaths; EBADF/ENOTCONN appear when the fd was
   torn down under a racing thread during shutdown. *)
let is_disconnect = function
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.ENOTCONN | Unix.EBADF | Unix.ESHUTDOWN), _, _) -> true
  | End_of_file -> true
  | _ -> false

(* SO_RCVTIMEO / SO_SNDTIMEO surface as EAGAIN/EWOULDBLOCK (ETIMEDOUT on
   some systems). *)
let is_timeout = function
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) -> true
  | _ -> false

(* ---------------- line framing ---------------- *)

(* Cap on one protocol line: a pattern query is a few hundred bytes;
   anything this big is a confused or hostile client, not a query. *)
let max_line = 16 * 1024 * 1024

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable start : int;  (* unconsumed bytes are buf[start, stop) *)
  mutable stop : int;
}

let reader fd = { fd; buf = Bytes.create 65536; start = 0; stop = 0 }

let trim_cr line =
  let len = String.length line in
  if len > 0 && line.[len - 1] = '\r' then String.sub line 0 (len - 1) else line

let rec newline buf i stop =
  if i >= stop then None
  else if Bytes.unsafe_get buf i = '\n' then Some i
  else newline buf (i + 1) stop

(* One LF-terminated line (CR trimmed), [None] at EOF.  Lines longer
   than the buffer accumulate in a side buffer, capped at [max_line].
   Read timeouts (SO_RCVTIMEO) surface as the Unix EAGAIN family — see
   {!is_timeout}. *)
let read_line r =
  let spill = Buffer.create 0 in
  let rec loop () =
    (* Only [start, stop) holds data: the bytes past [stop] are stale
       (an earlier read's) or uninitialised, and searching them would
       cost up to the whole buffer on every incomplete line. *)
    match newline r.buf r.start r.stop with
    | Some i ->
      let chunk = Bytes.sub_string r.buf r.start (i - r.start) in
      r.start <- i + 1;
      Some
        (trim_cr
           (if Buffer.length spill = 0 then chunk
            else begin
              Buffer.add_string spill chunk;
              Buffer.contents spill
            end))
    | None ->
      Buffer.add_subbytes spill r.buf r.start (r.stop - r.start);
      r.start <- 0;
      r.stop <- 0;
      if Buffer.length spill > max_line then failwith "line too long";
      (match Unix.read r.fd r.buf 0 (Bytes.length r.buf) with
       | 0 ->
         (* EOF: a trailing unterminated line still counts as a line. *)
         if Buffer.length spill = 0 then None else Some (trim_cr (Buffer.contents spill))
       | n ->
         r.stop <- n;
         loop ()
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

let rec write_all_bytes fd b pos len =
  if len > 0 then begin
    match Unix.write fd b pos len with
    | n -> write_all_bytes fd b (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all_bytes fd b pos len
  end

(* [Unix.write] only reads its buffer. *)
let write_all fd s pos len = write_all_bytes fd (Bytes.unsafe_of_string s) pos len

(* Payload and terminator in one write(2): two writes cost a second
   syscall, and on TCP can go out as two segments. *)
let write_line fd s =
  let n = String.length s in
  let b = Bytes.create (n + 1) in
  Bytes.blit_string s 0 b 0 n;
  Bytes.unsafe_set b n '\n';
  write_all_bytes fd b 0 (n + 1)

(* A connection's response lines are built in one buffer that lives as
   long as the connection, then copied into [out] and written in one
   write(2).  Both keep their size between lines, so a steady stream of
   replies allocates nothing; a reply above [writer_keep] bytes resets
   them, so one huge answer does not pin its memory for the life of the
   connection. *)
let writer_initial = 4096
let writer_keep = 65536

type writer = {
  wfd : Unix.file_descr;
  line : Buffer.t;
  mutable out : Bytes.t;
}

let writer fd = { wfd = fd; line = Buffer.create writer_initial; out = Bytes.create writer_initial }

let line_buffer w =
  Buffer.clear w.line;
  w.line

let flush_line w =
  Buffer.add_char w.line '\n';
  let n = Buffer.length w.line in
  if n > Bytes.length w.out then w.out <- Bytes.create (max n (2 * Bytes.length w.out));
  Buffer.blit w.line 0 w.out 0 n;
  write_all_bytes w.wfd w.out 0 n;
  if n > writer_keep then begin
    Buffer.reset w.line;
    w.out <- Bytes.create writer_initial
  end

(* ---------------- binary framing ---------------- *)

(* Cap on one binary frame.  A worker's reply ships a |Q|-bounded set of
   index payloads and node records — megabytes at the very most; a
   length beyond this is a desynchronised or hostile peer, and honouring
   it would make one bad header allocate the machine away. *)
let max_frame = 256 * 1024 * 1024

exception Frame_too_large of { limit : int; got : int }

let () =
  Printexc.register_printer (function
    | Frame_too_large { limit; got } ->
      Some (Printf.sprintf "Sock.Frame_too_large (got %d bytes, limit %d)" got limit)
    | _ -> None)

(* Fill [buf[pos, pos+len)] exactly, looping on short reads (stream
   sockets deliver whatever the kernel has buffered, not whole frames).
   Raises [End_of_file] if the peer closes mid-range. *)
let rec read_exact fd buf pos len =
  if len > 0 then begin
    match Unix.read fd buf pos len with
    | 0 -> raise End_of_file
    | n -> read_exact fd buf (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd buf pos len
  end

let frame_header len =
  let h = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set h i (Char.unsafe_chr ((len lsr (8 * i)) land 0xFF))
  done;
  Bytes.unsafe_to_string h

let send_frame fd payload =
  let len = String.length payload in
  if len > max_frame then raise (Frame_too_large { limit = max_frame; got = len });
  write_all fd (frame_header len) 0 8;
  write_all fd payload 0 len

(* One length-prefixed frame; [None] on clean EOF at a frame boundary.
   EOF inside a frame (header or payload) raises [End_of_file] — a peer
   that died mid-message, which {!is_disconnect} classifies. *)
let recv_frame fd =
  let h = Bytes.create 8 in
  match Unix.read fd h 0 8 with
  | 0 -> None
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    read_exact fd h 0 8;
    Some h
  | n ->
    read_exact fd h n (8 - n);
    Some h

let recv_frame fd =
  match recv_frame fd with
  | None -> None
  | Some h ->
    let len = ref 0 in
    for i = 7 downto 0 do
      len := (!len lsl 8) lor Char.code (Bytes.get h i)
    done;
    if !len < 0 || !len > max_frame then
      raise (Frame_too_large { limit = max_frame; got = !len });
    let payload = Bytes.create !len in
    read_exact fd payload 0 !len;
    Some payload
