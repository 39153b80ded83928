(* Struct-of-arrays binary min-heap.

   The heap state lives in three parallel arrays: an unboxed [float
   array] of times (the comparison hot path never chases a pointer), an
   [int array] of insertion sequence numbers (the FIFO tie-break), and an
   [Obj.t array] of payloads. Pushing and popping move scalars between
   array slots, so steady-state operation allocates nothing; the only
   allocations are the geometric growths of the arrays themselves.

   The payload array is deliberately [Obj.t array], created from an
   immediate value, so it is always a generic (pointer) array: storing a
   boxed float payload through [Obj.repr] is a plain pointer store. A
   ['a array] with a ['a] filler would risk being specialised into a
   flat float array and then reinterpreting pointers as doubles. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : Obj.t array;
  mutable len : int;
  mutable next_seq : int;
}

(* Filler for empty payload slots: an immediate, so vacated slots hold no
   reference and the GC can reclaim popped payloads immediately. *)
let empty_slot = Obj.repr 0

let create () =
  { times = [||]; seqs = [||]; slots = [||]; len = 0; next_seq = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.times in
  let cap' = Int.max 16 (2 * cap) in
  let times = Array.make cap' 0.0 in
  let seqs = Array.make cap' 0 in
  let slots = Array.make cap' empty_slot in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.slots 0 slots 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots

(* (time, seq) lexicographic order: slot [i] strictly before slot [j]. *)
let[@inline] earlier t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let[@inline] swap t i j =
  let time = t.times.(i) and seq = t.seqs.(i) and slot = t.slots.(i) in
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.slots.(i) <- t.slots.(j);
  t.times.(j) <- time;
  t.seqs.(j) <- seq;
  t.slots.(j) <- slot

let push t ~time payload =
  if t.len = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift the new entry up through a hole, writing it once at the end. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    (* A fresh seq is the largest yet, so ties with the parent stay put. *)
    if time < t.times.(parent) then begin
      t.times.(!i) <- t.times.(parent);
      t.seqs.(!i) <- t.seqs.(parent);
      t.slots.(!i) <- t.slots.(parent);
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.slots.(!i) <- Obj.repr payload

let top_time_exn t =
  if t.len = 0 then invalid_arg "Pqueue.top_time_exn: empty queue";
  t.times.(0)

let pop_exn t =
  if t.len = 0 then invalid_arg "Pqueue.pop_exn: empty queue";
  let top = t.slots.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.times.(0) <- t.times.(t.len);
    t.seqs.(0) <- t.seqs.(t.len);
    t.slots.(0) <- t.slots.(t.len);
    t.slots.(t.len) <- empty_slot;
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.len && earlier t l !smallest then smallest := l;
      if r < t.len && earlier t r !smallest then smallest := r;
      if !smallest <> !i then begin
        swap t !i !smallest;
        i := !smallest
      end
      else continue := false
    done
  end
  else t.slots.(0) <- empty_slot;
  (Obj.obj top : 'a)

let pop t =
  if t.len = 0 then None
  else
    let time = t.times.(0) in
    Some (time, pop_exn t)

let peek_time t = if t.len = 0 then None else Some t.times.(0)

let clear t =
  Array.fill t.slots 0 t.len empty_slot;
  t.len <- 0
