open Tr_sim

let serve_all (ctx : 'msg Node_intf.ctx) =
  while ctx.pending () > 0 do
    ctx.serve ()
  done

module Traps = struct
  (* A queue of k trapped requesters is one immutable byte string of 2k
     32-bit ids: slots [0 .. k - 1] hold them in FIFO order, oldest
     first, and slots [k .. 2k - 1] the same ids sorted, so [mem] is a
     binary search over unboxed ints. A push or a pop builds one new
     string. The GC never scans its contents, and promoting it is one
     copy of 8k bytes; an [int array] would take twice the space, and a
     [Set] a path of boxed nodes per update. The contents alone fix the
     value, so queues with equal contents are structurally equal. *)
  type t = Bytes.t

  let empty = Bytes.empty
  let size t = Bytes.length t / 8
  let is_empty t = Bytes.length t = 0
  let[@inline] get t slot = Int32.to_int (Bytes.get_int32_ne t (4 * slot))
  let[@inline] set t slot id = Bytes.set_int32_ne t (4 * slot) (Int32.of_int id)

  (* The first slot of the sorted half [k .. 2k - 1] whose id is at
     least [r]; [2k] if there is none. *)
  let lower_bound t k r =
    let lo = ref k and hi = ref (2 * k) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if get t mid < r then lo := mid + 1 else hi := mid
    done;
    !lo

  let mem t requester =
    let k = size t in
    let i = lower_bound t k requester in
    i < 2 * k && get t i = requester

  let push t requester =
    let k = size t in
    let i = lower_bound t k requester in
    if i < 2 * k && get t i = requester then t
    else begin
      if requester < 0 || requester > 0x7FFF_FFFF then
        invalid_arg "Traps.push: requester id below 0 or from 2^31 up";
      (* Blits count bytes: 4 per slot. The new requester goes last in
         the FIFO half and at slot i + 1 of the sorted half, after the
         i - k ids below it. *)
      let t' = Bytes.create (8 * (k + 1)) in
      Bytes.blit t 0 t' 0 (4 * k);
      set t' k requester;
      Bytes.blit t (4 * k) t' (4 * (k + 1)) (4 * (i - k));
      set t' (i + 1) requester;
      Bytes.blit t (4 * i) t' (4 * (i + 2)) (4 * ((2 * k) - i));
      t'
    end

  let pop t =
    let k = size t in
    if k = 0 then None
    else begin
      let requester = get t 0 in
      let i = lower_bound t k requester in
      let t' = Bytes.create (8 * (k - 1)) in
      Bytes.blit t 4 t' 0 (4 * (k - 1));
      Bytes.blit t (4 * k) t' (4 * (k - 1)) (4 * (i - k));
      Bytes.blit t (4 * (i + 1)) t' (4 * (i - 1)) (4 * ((2 * k) - i - 1));
      Some (requester, t')
    end

  let to_list t = List.init (size t) (get t)
end
