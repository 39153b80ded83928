(* Binary min-heap of int handles over a payload arena.

   Heap order lives in three unboxed parallel arrays: [float] times,
   [int] insertion sequence numbers (the FIFO tie-break) and [int]
   handles. A payload lives in the [payloads] arena at its handle's
   index from push to pop and never moves: sifting moves only floats
   and ints, which are plain stores. A pointer store into a major-heap
   array goes through the write barrier ([caml_modify]); here that is at
   most the payload's one store on push and its blanking on pop. Free
   handles wait on the [free] stack; every handle is either live (in the
   heap) or free, so the stack is empty exactly when the heap is full.

   The arena is deliberately an [Obj.t array], created from an immediate
   value, so it is always a generic (pointer) array: storing a boxed
   float payload through [Obj.repr] is a plain pointer store. An
   ['a array] with an ['a] filler could be specialised into a flat float
   array and then reinterpret pointers as doubles. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable handles : int array;
  mutable payloads : Obj.t array;
  mutable free : int array;
  mutable free_len : int;
  mutable len : int;
  mutable next_seq : int;
}

(* Filler for empty payload slots: an immediate, so vacated slots hold no
   reference and the GC can reclaim popped payloads immediately. *)
let empty_slot = Obj.repr 0

let create () =
  {
    times = [||];
    seqs = [||];
    handles = [||];
    payloads = [||];
    free = [||];
    free_len = 0;
    len = 0;
    next_seq = 0;
  }

let length t = t.len
let is_empty t = t.len = 0

(* Only called on a full queue, so the free stack is empty: the new
   handles [cap .. cap' - 1] fill it, lowest on top. *)
let grow t =
  let cap = Array.length t.times in
  let cap' = Int.max 16 (2 * cap) in
  let times = Array.make cap' 0.0 in
  let seqs = Array.make cap' 0 in
  let handles = Array.make cap' 0 in
  let payloads = Array.make cap' empty_slot in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.handles 0 handles 0 t.len;
  Array.blit t.payloads 0 payloads 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.handles <- handles;
  t.payloads <- payloads;
  t.free <- Array.init cap' (fun i -> cap' - 1 - i);
  t.free_len <- cap' - cap

let push t ~time payload =
  if t.free_len = 0 then grow t;
  t.free_len <- t.free_len - 1;
  let h = t.free.(t.free_len) in
  t.payloads.(h) <- Obj.repr payload;
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
      t.handles.(!i) <- t.handles.(parent);
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.handles.(!i) <- h

let top_time_exn t =
  if t.len = 0 then invalid_arg "Pqueue.top_time_exn: empty queue";
  t.times.(0)

(* Hand handle [h] back: blank its slot and push it on the free stack. *)
let[@inline] release t h =
  t.payloads.(h) <- empty_slot;
  t.free.(t.free_len) <- h;
  t.free_len <- t.free_len + 1

let pop_exn t =
  if t.len = 0 then invalid_arg "Pqueue.pop_exn: empty queue";
  let h = t.handles.(0) in
  let top = t.payloads.(h) in
  release t h;
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    (* Sift the last entry down from the root through a hole. *)
    let time = t.times.(last) and seq = t.seqs.(last) in
    let handle = t.handles.(last) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && (t.times.(r) < t.times.(l)
               || (t.times.(r) = t.times.(l) && t.seqs.(r) < t.seqs.(l)))
          then r
          else l
        in
        let tc = t.times.(c) in
        if tc < time || (tc = time && t.seqs.(c) < seq) then begin
          t.times.(!i) <- tc;
          t.seqs.(!i) <- t.seqs.(c);
          t.handles.(!i) <- t.handles.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.times.(!i) <- time;
    t.seqs.(!i) <- seq;
    t.handles.(!i) <- handle
  end;
  (Obj.obj top : 'a)

let pop t =
  if t.len = 0 then None
  else
    let time = t.times.(0) in
    Some (time, pop_exn t)

let peek_time t = if t.len = 0 then None else Some t.times.(0)

let clear t =
  for i = 0 to t.len - 1 do
    release t t.handles.(i)
  done;
  t.len <- 0
