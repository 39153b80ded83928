(* An [Int_heap] of arena handles over a payload arena.

   A payload lives in the [payloads] arena at its handle's index from
   push to pop and never moves: the heap sifts only the handle, with
   plain stores. A pointer store into a major-heap array goes through
   the write barrier ([caml_modify]); here that is the payload's one
   store on push and its blanking on pop. Free handles wait on the
   [free] stack; every handle is either live (in the heap) or free, so
   the stack is empty exactly when the heap is full.

   The arena is deliberately an [Obj.t array], created from an immediate
   value, so it is always a generic (pointer) array: storing a boxed
   float payload through [Obj.repr] is a plain pointer store. An
   ['a array] with an ['a] filler could be specialised into a flat float
   array and then reinterpret pointers as doubles. *)

type 'a t = {
  heap : Int_heap.t; (* values are handles into [payloads] *)
  mutable payloads : Obj.t array;
  mutable free : int array; (* free handles: [free.(0 .. free_len - 1)] *)
  mutable free_len : int;
}

(* Filler for empty payload slots: an immediate, so vacated slots hold no
   reference and the GC can reclaim popped payloads immediately. *)
let empty_slot = Obj.repr 0

let create () =
  { heap = Int_heap.create (); payloads = [||]; free = [||]; free_len = 0 }

let length t = t.heap.Int_heap.len
let is_empty t = t.heap.Int_heap.len = 0

(* Only called on a full queue, so the free stack is empty: the new
   handles [cap .. cap' - 1] fill it, lowest on top. *)
let grow t =
  let cap = Array.length t.payloads in
  let cap' = Int.max 16 (2 * cap) in
  let payloads = Array.make cap' empty_slot in
  Array.blit t.payloads 0 payloads 0 cap;
  t.payloads <- payloads;
  t.free <- Array.init cap' (fun i -> cap' - 1 - i);
  t.free_len <- cap' - cap

let push t ~time payload =
  if t.free_len = 0 then grow t;
  t.free_len <- t.free_len - 1;
  let h = t.free.(t.free_len) in
  t.payloads.(h) <- Obj.repr payload;
  Int_heap.push t.heap ~time h

let top_time_exn t =
  if is_empty t then invalid_arg "Pqueue.top_time_exn: empty queue";
  t.heap.Int_heap.times.(0)

(* Hand handle [h] back: blank its slot and push it on the free stack. *)
let[@inline] release t h =
  t.payloads.(h) <- empty_slot;
  t.free.(t.free_len) <- h;
  t.free_len <- t.free_len + 1

let pop_exn t =
  if is_empty t then invalid_arg "Pqueue.pop_exn: empty queue";
  let h = Int_heap.pop_exn t.heap in
  let top = t.payloads.(h) in
  release t h;
  (Obj.obj top : 'a)

let pop t =
  if is_empty t then None
  else
    let time = t.heap.Int_heap.times.(0) in
    Some (time, pop_exn t)

let peek_time t = Int_heap.peek_time t.heap

let clear t =
  let heap = t.heap in
  for i = 0 to heap.Int_heap.len - 1 do
    release t heap.Int_heap.values.(i)
  done;
  Int_heap.clear heap
