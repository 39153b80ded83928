type backend = Epoll | Poll

(* Interest/result bits shared with readiness_stubs.c. *)
let bit_read = 1
let bit_write = 2

external has_epoll : unit -> bool = "tr_rd_has_epoll"
external epoll_create : unit -> Unix.file_descr = "tr_rd_epoll_create"

external epoll_ctl : Unix.file_descr -> int -> int -> int -> unit
  = "tr_rd_epoll_ctl"

external epoll_wait_stub :
  Unix.file_descr -> int array -> int array -> int -> int = "tr_rd_epoll_wait"

external poll_stub : int array -> int array -> int array -> int -> int -> int
  = "tr_rd_poll"

external raise_nofile_stub : unit -> int = "tr_rd_raise_nofile"
external ncpus : unit -> int = "tr_rd_ncpus"
external pin_cpu : int -> bool = "tr_rd_pin_cpu"

(* Unix.file_descr is an int on every Unix port; the transport keys its
   fd->peer table by this int. *)
external fd_int : Unix.file_descr -> int = "%identity"

let backend_name = function Epoll -> "epoll" | Poll -> "poll"

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "epoll" -> Ok Epoll
  | "poll" -> Ok Poll
  | other ->
      Error
        (Printf.sprintf "unknown readiness backend %S (expected epoll or poll)"
           other)

let available = function Epoll -> has_epoll () | Poll -> true

(* Poll is always available, so it is the whole fallback chain. *)
let resolve ?(source = "forced") b =
  if available b then b
  else begin
    Printf.eprintf
      "Readiness: %s backend %s is unavailable on this system; falling back \
       to poll\n\
       %!"
      source (backend_name b);
    Poll
  end

let default_backend () =
  match Sys.getenv_opt "TR_READINESS" with
  | Some s when String.trim s <> "" -> (
      match backend_of_string s with
      | Error e -> failwith ("TR_READINESS: " ^ e)
      | Ok b -> resolve ~source:"TR_READINESS" b)
  | _ -> if available Epoll then Epoll else Poll

(* epoll_ctl ops, mirrored in the stub. *)
let op_add = 0
let op_mod = 1
let op_del = 2

type slot = {
  mutable interest : int;  (** bit_read / bit_write mask. *)
  mutable idx : int;  (** Position in the poll backend's dense arrays. *)
}

type epoll_state = {
  epfd : Unix.file_descr;
  (* Result staging, sized to the stub's per-call event cap. *)
  ev_fds : int array;
  ev_flags : int array;
}

type poll_state = {
  (* Dense parallel arrays over the registered slots; slot.idx gives
     O(1) removal by swapping the last entry in. *)
  mutable pfds : int array;
  mutable pevents : int array;
  mutable prevents : int array;
  mutable pcount : int;
  mutable porder : slot array;  (** Slot at each dense index. *)
}

type impl = E of epoll_state | P of poll_state

type t = {
  which : backend;
  slots : (int, slot) Hashtbl.t;
  impl : impl;
  mutable closed : bool;
}

let max_events = 512

let create ?backend () =
  let which = match backend with Some b -> b | None -> default_backend () in
  if not (available which) then
    failwith
      (Printf.sprintf "Readiness: backend %s is unavailable on this platform"
         (backend_name which));
  let impl =
    match which with
    | Epoll ->
        E
          {
            epfd = epoll_create ();
            ev_fds = Array.make max_events 0;
            ev_flags = Array.make max_events 0;
          }
    | Poll ->
        P
          {
            pfds = Array.make 16 0;
            pevents = Array.make 16 0;
            prevents = Array.make 16 0;
            pcount = 0;
            porder = Array.make 16 { interest = 0; idx = -1 };
          }
  in
  { which; slots = Hashtbl.create 64; impl; closed = false }

let backend t = t.which
let fds_registered t = Hashtbl.length t.slots

let interest_of ~read ~write =
  (if read then bit_read else 0) lor if write then bit_write else 0

let poll_grow p =
  let cap = 2 * Array.length p.pfds in
  let grow a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 p.pcount;
    b
  in
  p.pfds <- grow p.pfds 0;
  p.pevents <- grow p.pevents 0;
  p.prevents <- grow p.prevents 0;
  p.porder <- grow p.porder p.porder.(0)

let set t fd ~read ~write =
  let key = fd_int fd in
  let interest = interest_of ~read ~write in
  match Hashtbl.find_opt t.slots key with
  | Some slot ->
      if slot.interest <> interest then begin
        slot.interest <- interest;
        match t.impl with
        | E e -> epoll_ctl e.epfd op_mod key interest
        | P p -> p.pevents.(slot.idx) <- interest
      end
  | None ->
      let slot = { interest; idx = -1 } in
      Hashtbl.replace t.slots key slot;
      (match t.impl with
      | E e -> epoll_ctl e.epfd op_add key interest
      | P p ->
          if p.pcount = Array.length p.pfds then poll_grow p;
          slot.idx <- p.pcount;
          p.pfds.(p.pcount) <- key;
          p.pevents.(p.pcount) <- interest;
          p.porder.(p.pcount) <- slot;
          p.pcount <- p.pcount + 1)

let remove t fd =
  let key = fd_int fd in
  match Hashtbl.find_opt t.slots key with
  | None -> ()
  | Some slot ->
      Hashtbl.remove t.slots key;
      (match t.impl with
      | E e -> ( try epoll_ctl e.epfd op_del key 0 with Failure _ -> ())
      | P p ->
          let last = p.pcount - 1 in
          let i = slot.idx in
          if i <> last then begin
            p.pfds.(i) <- p.pfds.(last);
            p.pevents.(i) <- p.pevents.(last);
            p.porder.(i) <- p.porder.(last);
            p.porder.(i).idx <- i
          end;
          p.pcount <- last)

(* Timeouts travel to the stubs as nanoseconds (epoll_pwait2 / ppoll);
   negative would mean "forever", which the transport's lost-wakeup cap
   never requests. *)
let timeout_ns timeout_s =
  if timeout_s <= 0.0 then 0
  else if timeout_s >= 2.0 then 2_000_000_000
  else int_of_float (Float.round (timeout_s *. 1e9))

let wait t ~timeout_s f =
  match t.impl with
  | E e ->
      let n =
        epoll_wait_stub e.epfd e.ev_fds e.ev_flags (timeout_ns timeout_s)
      in
      for i = 0 to n - 1 do
        let flags = e.ev_flags.(i) in
        f ~fd:e.ev_fds.(i)
          ~readable:(flags land bit_read <> 0)
          ~writable:(flags land bit_write <> 0)
      done;
      n
  | P p ->
      let ready =
        poll_stub p.pfds p.pevents p.prevents p.pcount (timeout_ns timeout_s)
      in
      if ready > 0 then
        for i = 0 to p.pcount - 1 do
          let flags = p.prevents.(i) in
          if flags <> 0 then
            f ~fd:p.pfds.(i)
              ~readable:(flags land bit_read <> 0)
              ~writable:(flags land bit_write <> 0)
        done;
      ready

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.impl with
    | E e -> ( try Unix.close e.epfd with Unix.Unix_error _ -> ())
    | P _ -> ()
  end

let raise_nofile =
  let limit = lazy (raise_nofile_stub ()) in
  fun () -> Lazy.force limit
