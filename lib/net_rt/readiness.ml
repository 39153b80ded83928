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
external set_timer_slack_ns : int -> bool = "tr_rd_set_timer_slack"

(* Unix.file_descr is an int on every Unix port; per-fd tables here and
   in the transport are indexed by this int. *)
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

type epoll_state = {
  epfd : Unix.file_descr;
  (* Result staging, sized to the stub's per-call event cap. *)
  ev_fds : int array;
  ev_flags : int array;
}

type poll_state = {
  (* Dense parallel arrays over the registered fds; [pos] gives O(1)
     removal by swapping the last entry in. *)
  mutable pfds : int array;
  mutable pevents : int array;
  mutable prevents : int array;
  mutable pcount : int;
  mutable pos : int array;  (** By fd: its index in the dense arrays. *)
}

type impl = E of epoll_state | P of poll_state

(* fds are small dense ints (the kernel hands out the lowest free one),
   so per-fd state lives in arrays indexed by fd, grown on demand. *)
type t = {
  which : backend;
  mutable interest : int array;
      (** By fd: bit_read / bit_write mask, or [absent]. *)
  mutable registered : int;
  impl : impl;
  mutable closed : bool;
}

let absent = -1
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
            pos = Array.make 64 0;
          }
  in
  { which; interest = Array.make 64 absent; registered = 0; impl; closed = false }

let backend t = t.which
let fds_registered t = t.registered

let interest_of ~read ~write =
  (if read then bit_read else 0) lor if write then bit_write else 0

(* [a] widened past index [i], the new tail filled with [fill]. *)
let cover a i fill =
  let len = Array.length a in
  if i < len then a
  else begin
    let b = Array.make (Int.max (2 * len) (i + 1)) fill in
    Array.blit a 0 b 0 len;
    b
  end

let poll_grow p =
  let cap = 2 * Array.length p.pfds in
  let grow a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 p.pcount;
    b
  in
  p.pfds <- grow p.pfds;
  p.pevents <- grow p.pevents;
  p.prevents <- grow p.prevents

let set t fd ~read ~write =
  let key = fd_int fd in
  let interest = interest_of ~read ~write in
  t.interest <- cover t.interest key absent;
  let prev = t.interest.(key) in
  if prev = absent then begin
    (match t.impl with
    | E e -> epoll_ctl e.epfd op_add key interest
    | P p ->
        if p.pcount = Array.length p.pfds then poll_grow p;
        p.pos <- cover p.pos key 0;
        p.pos.(key) <- p.pcount;
        p.pfds.(p.pcount) <- key;
        p.pevents.(p.pcount) <- interest;
        p.pcount <- p.pcount + 1);
    t.interest.(key) <- interest;
    t.registered <- t.registered + 1
  end
  else if prev <> interest then begin
    (match t.impl with
    | E e -> epoll_ctl e.epfd op_mod key interest
    | P p -> p.pevents.(p.pos.(key)) <- interest);
    t.interest.(key) <- interest
  end

let remove t fd =
  let key = fd_int fd in
  if key < Array.length t.interest && t.interest.(key) <> absent then begin
    t.interest.(key) <- absent;
    t.registered <- t.registered - 1;
    match t.impl with
    | E e -> ( try epoll_ctl e.epfd op_del key 0 with Failure _ -> ())
    | P p ->
        let last = p.pcount - 1 in
        let i = p.pos.(key) in
        if i <> last then begin
          let moved = p.pfds.(last) in
          p.pfds.(i) <- moved;
          p.pevents.(i) <- p.pevents.(last);
          p.pos.(moved) <- i
        end;
        p.pcount <- last
  end

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
