(* Binary min-heap of (time, seq, value) entries in three unboxed
   parallel arrays: [float] times, [int] insertion sequence numbers (the
   FIFO tie-break) and [int] values. Every store is a plain float or int
   store, so nothing here takes the write barrier. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; values = [||]; len = 0; next_seq = 0 }
let length t = t.len

let grow t =
  let cap' = Int.max 16 (2 * Array.length t.times) in
  let extend arr filler =
    let arr' = Array.make cap' filler in
    Array.blit arr 0 arr' 0 t.len;
    arr'
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.values <- extend t.values 0

let push t ~time value =
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
      t.values.(!i) <- t.values.(parent);
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.values.(!i) <- value

let peek_time t = if t.len = 0 then None else Some t.times.(0)

let pop_exn t =
  if t.len = 0 then invalid_arg "Int_heap.pop_exn: empty heap";
  let top = t.values.(0) in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    (* Sift the last entry down from the root through a hole. *)
    let time = t.times.(last) and seq = t.seqs.(last) in
    let value = t.values.(last) in
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
          t.values.(!i) <- t.values.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.times.(!i) <- time;
    t.seqs.(!i) <- seq;
    t.values.(!i) <- value
  end;
  top

let clear t = t.len <- 0
