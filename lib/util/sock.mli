(** Socket plumbing for the serve daemon and its clients: addresses,
    listeners, per-connection timeouts, line framing, and the exception
    taxonomy a long-lived server needs (client-went-away vs idled-out
    vs real failure). *)

type addr =
  | Unix_path of string  (** Unix-domain socket at this path. *)
  | Tcp of string * int  (** Host (name or dotted quad) and port. *)

val parse : string -> (addr, string) result
(** Accepts [unix:PATH], a bare path containing ['/'], [HOST:PORT], and
    [:PORT] (loopback). *)

val to_string : addr -> string

val ignore_sigpipe : unit -> unit
(** Set SIGPIPE to ignore (no-op on platforms without it).  Must run
    before serving: with the default disposition, one client
    disconnecting mid-response kills the whole daemon; ignored, the
    write fails with [EPIPE], which {!is_disconnect} classifies so only
    that connection is dropped. *)

val listen : ?backlog:int -> addr -> Unix.file_descr
(** Bound, listening socket.  For a unix address, a {e stale socket
    file} at the path is removed first; a non-socket file at the path is
    an error ([Failure]), never removed. *)

val close_listener : addr -> Unix.file_descr -> unit
(** Close and, for unix addresses, unlink the socket path.  Never
    raises. *)

val connect : addr -> Unix.file_descr

val set_timeouts : ?read:float -> ?write:float -> Unix.file_descr -> unit
(** Per-connection SO_RCVTIMEO / SO_SNDTIMEO in seconds; non-positive or
    absent values leave the direction blocking. *)

val is_disconnect : exn -> bool
(** Did the peer go away?  [EPIPE], [ECONNRESET] and friends, plus
    [End_of_file]. *)

val is_timeout : exn -> bool
(** Did a read/write hit its SO_RCVTIMEO / SO_SNDTIMEO? *)

(** {1 Line framing} *)

type reader

val reader : Unix.file_descr -> reader

val read_line : reader -> string option
(** Next LF-terminated line with the terminator (and a trailing CR)
    stripped; [None] at EOF.  Raises [Failure] on lines over 16 MiB and
    re-raises socket errors (including timeouts — {!is_timeout}). *)

val write_all : Unix.file_descr -> string -> int -> int -> unit
(** [write_all fd s pos len], retrying on [EINTR] and looping on short
    writes. *)

val write_line : Unix.file_descr -> string -> unit
(** The string followed by ['\n'], in one [write(2)] unless the kernel
    takes it short. *)

type writer
(** A reusable line buffer for one connection's responses. *)

val writer : Unix.file_descr -> writer

val line_buffer : writer -> Buffer.t
(** The writer's buffer, emptied: build the next line (without its
    ['\n']) in it, then {!flush_line}. *)

val flush_line : writer -> unit
(** Write the buffered line and its ['\n'] in one [write(2)] (looping
    only on short writes).  The buffer keeps its size for the next line
    unless this one was over 64 KiB, in which case it shrinks back. *)

(** {1 Binary framing}

    Length-prefixed frames for the sharded fetch protocol
    ([Bpq_store.Remote]): an 8-byte little-endian payload length, then
    the payload.  Reads and writes loop on partial transfers, so a
    frame survives any kernel-level fragmentation. *)

val max_frame : int
(** Upper bound on one frame's payload (256 MiB). *)

exception Frame_too_large of { limit : int; got : int }
(** A header announced (or a send supplied) a payload over {!max_frame}
    — a desynchronised or hostile peer, surfaced before any allocation
    honours it. *)

val read_exact : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** [read_exact fd buf pos len] fills the range exactly, looping on
    short reads; raises [End_of_file] if the peer closes first. *)

val send_frame : Unix.file_descr -> string -> unit
(** @raise Frame_too_large instead of sending an oversized payload. *)

val recv_frame : Unix.file_descr -> Bytes.t option
(** The next frame's payload; [None] on clean EOF at a frame boundary.
    EOF {e inside} a frame raises [End_of_file] (the peer died
    mid-message — {!is_disconnect} classifies it).
    @raise Frame_too_large on an oversized announced length. *)
