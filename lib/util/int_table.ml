(* Slot [i] is [data.(2i)] (key) and [data.(2i+1)] (value); a key equal
   to [free] marks an empty slot, so a binding for [free] itself lives in
   [free_bound]/[free_val] instead.  [mask] is the slot count minus one,
   and [count] (excluding the out-of-band binding) stays at most three
   quarters of the slot count, so every probe chain ends at an empty
   slot.  A lower ceiling shortens chains a little but costs memory: at
   one half, a serving process's peak RSS measured higher. *)

let free = min_int

type t = {
  mutable data : int array;
  mutable mask : int;
  mutable count : int;
  mutable free_bound : bool;
  mutable free_val : int;
}

(* splitmix64-style avalanche: packed keys (edge pairs, fetch keys, page
   numbers) differ in low or high bits alike, and both must reach the
   masked slot index. *)
let hash x =
  let x = x * 0x9E3779B97F4A7C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xBF58476D1CE4E5 in
  x lxor (x lsr 32)

let slots_for n =
  let rec up s = if 3 * s >= 4 * n then s else up (2 * s) in
  up 8

let create n =
  let slots = slots_for (max n 1) in
  { data = Array.make (2 * slots) free;
    mask = slots - 1;
    count = 0;
    free_bound = false;
    free_val = 0 }

let length t = t.count + if t.free_bound then 1 else 0
let capacity t = t.mask + 1

(* The slot holding [k], or the empty slot where its probe chain ends. *)
let rec probe data mask k i =
  let kk = Array.unsafe_get data (2 * i) in
  if kk = k || kk = free then i else probe data mask k ((i + 1) land mask)

let locate t k = probe t.data t.mask k (hash k land t.mask)

let mem t k =
  if k = free then t.free_bound
  else Array.unsafe_get t.data (2 * locate t k) <> free

let find t ~default k =
  if k = free then if t.free_bound then t.free_val else default
  else
    let i = locate t k in
    if Array.unsafe_get t.data (2 * i) = free then default
    else Array.unsafe_get t.data ((2 * i) + 1)

let grow t =
  let old = t.data in
  let slots = 2 * (t.mask + 1) in
  let data = Array.make (2 * slots) free in
  let mask = slots - 1 in
  for i = 0 to (Array.length old / 2) - 1 do
    let k = Array.unsafe_get old (2 * i) in
    if k <> free then begin
      let j = probe data mask k (hash k land mask) in
      Array.unsafe_set data (2 * j) k;
      Array.unsafe_set data ((2 * j) + 1) (Array.unsafe_get old ((2 * i) + 1))
    end
  done;
  t.data <- data;
  t.mask <- mask

(* Bind [k] (not [free]) in empty slot [i]. *)
let insert_at t i k v =
  Array.unsafe_set t.data (2 * i) k;
  Array.unsafe_set t.data ((2 * i) + 1) v;
  t.count <- t.count + 1;
  if 4 * t.count > 3 * (t.mask + 1) then grow t

let replace t k v =
  if k = free then begin
    t.free_bound <- true;
    t.free_val <- v
  end
  else
    let i = locate t k in
    if Array.unsafe_get t.data (2 * i) = free then insert_at t i k v
    else Array.unsafe_set t.data ((2 * i) + 1) v

let add_if_absent t k v =
  if k = free then
    if t.free_bound then false
    else begin
      t.free_bound <- true;
      t.free_val <- v;
      true
    end
  else
    let i = locate t k in
    if Array.unsafe_get t.data (2 * i) = free then begin
      insert_at t i k v;
      true
    end
    else false

(* Backward-shift deletion: walk the chain after the vacated slot and
   move back every entry whose home slot does not lie cyclically after
   the hole, so no later lookup meets a premature empty slot. *)
let remove t k =
  if k = free then t.free_bound <- false
  else begin
    let data = t.data and mask = t.mask in
    let hole = ref (locate t k) in
    if Array.unsafe_get data (2 * !hole) <> free then begin
      t.count <- t.count - 1;
      let j = ref ((!hole + 1) land mask) in
      while Array.unsafe_get data (2 * !j) <> free do
        let kj = Array.unsafe_get data (2 * !j) in
        let home = hash kj land mask in
        if (!j - home) land mask >= (!j - !hole) land mask then begin
          Array.unsafe_set data (2 * !hole) kj;
          Array.unsafe_set data ((2 * !hole) + 1) (Array.unsafe_get data ((2 * !j) + 1));
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      Array.unsafe_set data (2 * !hole) free
    end
  end

let iter f t =
  let data = t.data in
  for i = 0 to t.mask do
    let k = Array.unsafe_get data (2 * i) in
    if k <> free then f k (Array.unsafe_get data ((2 * i) + 1))
  done;
  if t.free_bound then f free t.free_val

let clear t =
  if t.count > 0 then Array.fill t.data 0 (Array.length t.data) free;
  t.count <- 0;
  t.free_bound <- false
