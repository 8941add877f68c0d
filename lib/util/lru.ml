(* Slots live in four parallel arrays (key, value, prev, next); the
   recency list is intrusive: prev/next hold slot indices, -1 terminates.
   [head] is the most recently used slot, [tail] the eviction victim. *)

type 'v t = {
  cap : int;
  tbl : Int_table.t;  (* key -> slot *)
  mutable keys : int array;
  mutable vals : 'v option array;
  mutable prev : int array;
  mutable next : int array;
  mutable head : int;
  mutable tail : int;
  mutable len : int;
  mutable evicted : int;
}

let create cap =
  if cap < 0 then invalid_arg "Lru.create: negative capacity";
  let size = min cap 16 in
  { cap;
    tbl = Int_table.create (max 16 size);
    keys = Array.make size 0;
    vals = Array.make size None;
    prev = Array.make size (-1);
    next = Array.make size (-1);
    head = -1;
    tail = -1;
    len = 0;
    evicted = 0 }

let capacity t = t.cap
let length t = t.len
let evictions t = t.evicted

let grow t =
  let size = Array.length t.keys in
  if t.len = size && size < t.cap then begin
    let size' = min t.cap (max 16 (2 * size)) in
    let extend a fill =
      let a' = Array.make size' fill in
      Array.blit a 0 a' 0 size;
      a'
    in
    t.keys <- extend t.keys 0;
    t.vals <- extend t.vals None;
    t.prev <- extend t.prev (-1);
    t.next <- extend t.next (-1)
  end

(* Detach slot [s] from the recency list. *)
let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s;
  t.head <- s;
  if t.tail < 0 then t.tail <- s

let promote t s =
  if t.head <> s then begin
    unlink t s;
    push_front t s
  end

let find t k =
  let s = Int_table.find t.tbl ~default:(-1) k in
  if s < 0 then None
  else begin
    promote t s;
    t.vals.(s)
  end

let mem t k = Int_table.mem t.tbl k

let add t k v =
  if t.cap > 0 then
    let s = Int_table.find t.tbl ~default:(-1) k in
    if s >= 0 then begin
      t.vals.(s) <- Some v;
      promote t s
    end
    else begin
      let s =
        if t.len < t.cap then begin
          grow t;
          let s = t.len in
          t.len <- t.len + 1;
          s
        end
        else begin
          (* Full: reuse the least-recently-used slot. *)
          let s = t.tail in
          Int_table.remove t.tbl t.keys.(s);
          t.evicted <- t.evicted + 1;
          unlink t s;
          s
        end
      in
      t.keys.(s) <- k;
      t.vals.(s) <- Some v;
      Int_table.replace t.tbl k s;
      push_front t s
    end

let clear t =
  Int_table.clear t.tbl;
  Array.fill t.vals 0 (Array.length t.vals) None;
  t.head <- -1;
  t.tail <- -1;
  t.len <- 0

let to_list t =
  let rec walk acc s =
    if s < 0 then List.rev acc
    else
      let v = match t.vals.(s) with Some v -> v | None -> assert false in
      walk ((t.keys.(s), v) :: acc) t.next.(s)
  in
  walk [] t.head
