open Bpq_access
module Lru = Bpq_util.Lru
module Vec = Bpq_util.Vec

(* Packed key layout (62 bits, always a non-negative OCaml int):

     [ arity:2 | cid:14 | e0:23 | e1:23 ]

   Arity participates so that ([], cid) and ([0], cid) and ([0,0], cid)
   never collide.  2-tuples are normalised (min, max): the index keys
   node *sets*, so both anchor orders must land on one entry. *)

let cid_bits = 14
let node_bits = 23
let node_mask = (1 lsl node_bits) - 1

type t = {
  lru : int array Lru.t;
  cids : (Constr.t, int) Hashtbl.t;
  mutable next_cid : int;
  mutable last : (Constr.t * int) option;  (* the last constraint looked up and its id *)
  mutable hits : int;
  mutable misses : int;
  mutable bypasses : int;
}

type stats = { hits : int; misses : int; evictions : int; bypasses : int }

let create ~capacity () =
  { lru = Lru.create capacity;
    cids = Hashtbl.create 64;
    next_cid = 0;
    last = None;
    hits = 0;
    misses = 0;
    bypasses = 0 }

let capacity t = Lru.capacity t.lru

(* An operation looks up one constraint for each of its anchor tuples,
   so the last constraint, recognised by physical equality, spares the
   structural hash of the [Constr.t] on all but the first lookup. *)
let constr_id t c =
  match t.last with
  | Some (c', id) when c' == c -> id
  | _ ->
    let id =
      match Hashtbl.find_opt t.cids c with
      | Some id -> id
      | None ->
        let id = t.next_cid in
        t.next_cid <- id + 1;
        Hashtbl.replace t.cids c id;
        id
    in
    t.last <- Some (c, id);
    id

(* -1 when the key does not fit the packed layout. *)
let pack t c (tuple : int array) =
  let arity = Array.length tuple in
  if arity > 2 then -1
  else begin
    let cid = constr_id t c in
    if cid >= 1 lsl cid_bits then -1
    else begin
      let e0, e1 =
        match arity with
        | 0 -> (0, 0)
        | 1 -> (tuple.(0), 0)
        | _ ->
          let a = tuple.(0) and b = tuple.(1) in
          if a <= b then (a, b) else (b, a)
      in
      if e0 > node_mask || e1 > node_mask || e0 < 0 || e1 < 0 then -1
      else
        (arity lsl (2 * node_bits + cid_bits))
        lor (cid lsl (2 * node_bits))
        lor (e0 lsl node_bits)
        lor e1
    end
  end

let lookup_iter t c tuple underlying f =
  let key = pack t c tuple in
  if key < 0 then begin
    t.bypasses <- t.bypasses + 1;
    underlying f
  end
  else
    match Lru.find t.lru key with
    | Some bucket ->
      t.hits <- t.hits + 1;
      Array.iter f bucket
    | None ->
      t.misses <- t.misses + 1;
      let hits = Vec.create ~capacity:8 () in
      underlying (fun w -> Vec.push hits w);
      let bucket = Vec.to_array hits in
      Lru.add t.lru key bucket;
      Array.iter f bucket

let stats (t : t) =
  { hits = t.hits;
    misses = t.misses;
    evictions = Lru.evictions t.lru;
    bypasses = t.bypasses }

let clear t = Lru.clear t.lru
