(* See wakeup.mli. Level-triggered readiness makes the race-free
   contract simple: a byte written before the shard enters its wait
   still wakes it, and draining to EAGAIN once the set reports the pipe
   leaves no stale readability to spin the next wait. *)

type t = {
  r : Unix.file_descr;
  w : Unix.file_descr;
  buf : Bytes.t;
  mu : Mutex.t;  (** Serialises [wake] with [close]. *)
  mutable closed : bool;
}

let create () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  { r; w; buf = Bytes.create 4096; mu = Mutex.create (); closed = false }

let read_fd t = t.r

let byte = Bytes.make 1 '!'

let wake t =
  (* A full pipe is fine: readability is already pending, which is all
     a wake means. Once closed, the fd numbers may already name other
     files, so a late wake must not write at all. *)
  Mutex.protect t.mu (fun () ->
      if not t.closed then
        try ignore (Unix.single_write t.w byte 0 1)
        with Unix.Unix_error _ -> ())

let drain t =
  let rec go reads =
    match Unix.read t.r t.buf 0 (Bytes.length t.buf) with
    | 0 -> reads
    | _ -> go (reads + 1)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> reads
    | exception Unix.Unix_error (EINTR, _, _) -> go (reads + 1)
    | exception Unix.Unix_error (_, _, _) -> reads
  in
  go 1

let close t =
  Mutex.protect t.mu (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (try Unix.close t.r with Unix.Unix_error _ -> ());
        try Unix.close t.w with Unix.Unix_error _ -> ()
      end)
