(** Open-addressing int → int map.

    Linear probing over one flat array of interleaved key/value slots, a
    power-of-two slot count kept at most three quarters full, and
    backward-shift deletion (no tombstones), so lookups, inserts and
    removals allocate nothing and probe chains stay short.  Every [int]
    is a legal key, including the one used internally to mark free slots
    (it is held out of band).

    This is the hashtable of the per-query hot paths: the executor's
    pair dedup, [G_Q] edge set and node renumbering, and the key → slot
    map of {!Lru}.  A value is not thread-safe. *)

type t

val create : int -> t
(** [create n] — an empty table sized for about [n] bindings without
    growing. *)

val length : t -> int
(** Bindings held. *)

val capacity : t -> int
(** Slots currently allocated (a power of two); grows with {!length},
    kept by {!clear}. *)

val mem : t -> int -> bool

val find : t -> default:int -> int -> int
(** [find t ~default k] — the value bound to [k], or [default]. *)

val replace : t -> int -> int -> unit
(** [replace t k v] binds [k] to [v], replacing any earlier binding. *)

val add_if_absent : t -> int -> int -> bool
(** [add_if_absent t k v] binds [k] to [v] unless [k] is already bound;
    returns whether it inserted. *)

val remove : t -> int -> unit
(** No-op when [k] is unbound. *)

val iter : (int -> int -> unit) -> t -> unit
(** Every binding once, in unspecified order.  The table must not be
    modified during the iteration. *)

val clear : t -> unit
(** Drop every binding, keeping the allocated slots. *)
