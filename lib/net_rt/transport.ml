open Tr_wire

(* One shard's counters. They are plain ints, because only the shard's
   own domain writes them: its nodes send, read, write and wait there.
   A node that no shard has adopted yet counts in the transport's own
   block, which only the domain that drives it before adoption writes.
   [snapshot] sums the blocks; a reader on another domain sees each
   int as some value it held, never a torn one. *)
type counters = {
  mutable c_frames_sent : int;
  mutable c_bytes_sent : int;
  mutable c_frames_received : int;
  mutable c_decode_errors : int;
  mutable c_resync_skips : int;
  mutable c_reconnects : int;
  mutable c_frames_dropped : int;
  mutable c_out_hwm_bytes : int;
  mutable c_write_syscalls : int;
  mutable c_read_syscalls : int;
  mutable c_wait_calls : int;
  mutable c_fds_ready : int;
  mutable c_fds_registered : int;
  mutable c_spin_hits : int;
  mutable c_spin_misses : int;
  mutable c_inproc_frames : int;
}

let counters () =
  {
    c_frames_sent = 0;
    c_bytes_sent = 0;
    c_frames_received = 0;
    c_decode_errors = 0;
    c_resync_skips = 0;
    c_reconnects = 0;
    c_frames_dropped = 0;
    c_out_hwm_bytes = 0;
    c_write_syscalls = 0;
    c_read_syscalls = 0;
    c_wait_calls = 0;
    c_fds_ready = 0;
    c_fds_registered = 0;
    c_spin_hits = 0;
    c_spin_misses = 0;
    c_inproc_frames = 0;
  }

(* The totals the latest snapshot read, kept for readers of the
   record's fields, and the live blocks: the transport's own last,
   each adopted shard's put in front of it. *)
type stats = {
  frames_sent : int Atomic.t;
  bytes_sent : int Atomic.t;
  frames_received : int Atomic.t;
  decode_errors : int Atomic.t;
  resync_skips : int Atomic.t;
  reconnects : int Atomic.t;
  frames_dropped : int Atomic.t;
  out_hwm_bytes : int Atomic.t;
  write_syscalls : int Atomic.t;
  read_syscalls : int Atomic.t;
  wait_calls : int Atomic.t;
  fds_ready : int Atomic.t;
  fds_registered : int Atomic.t;
  spin_hits : int Atomic.t;
  spin_misses : int Atomic.t;
  inproc_frames : int Atomic.t;
  blocks : counters list Atomic.t;
}

let make_stats base =
  {
    frames_sent = Atomic.make 0;
    bytes_sent = Atomic.make 0;
    frames_received = Atomic.make 0;
    decode_errors = Atomic.make 0;
    resync_skips = Atomic.make 0;
    reconnects = Atomic.make 0;
    frames_dropped = Atomic.make 0;
    out_hwm_bytes = Atomic.make 0;
    write_syscalls = Atomic.make 0;
    read_syscalls = Atomic.make 0;
    wait_calls = Atomic.make 0;
    fds_ready = Atomic.make 0;
    fds_registered = Atomic.make 0;
    spin_hits = Atomic.make 0;
    spin_misses = Atomic.make 0;
    inproc_frames = Atomic.make 0;
    blocks = Atomic.make [ base ];
  }

let rec add_block stats c =
  let old = Atomic.get stats.blocks in
  if not (Atomic.compare_and_set stats.blocks old (c :: old)) then
    add_block stats c

(* A coherent point-in-time copy: every counter read exactly once, so a
   report racing live shards (or their teardown) can never observe a
   counter twice with different values or tear a row mid-print. *)
type snapshot = {
  snap_frames_sent : int;
  snap_bytes_sent : int;
  snap_frames_received : int;
  snap_decode_errors : int;
  snap_resync_skips : int;
  snap_reconnects : int;
  snap_frames_dropped : int;
  snap_out_hwm_bytes : int;
  snap_write_syscalls : int;
  snap_read_syscalls : int;
  snap_wait_calls : int;
  snap_fds_ready : int;
  snap_fds_registered : int;
  snap_spin_hits : int;
  snap_spin_misses : int;
  snap_inproc_frames : int;
}

(* Sum every block, reading each of its counters once, and publish the
   totals in the stats' own fields. The high-water mark is a maximum,
   the rest are sums. *)
let snapshot_of_stats s =
  let t = counters () in
  List.iter
    (fun c ->
      t.c_frames_sent <- t.c_frames_sent + c.c_frames_sent;
      t.c_bytes_sent <- t.c_bytes_sent + c.c_bytes_sent;
      t.c_frames_received <- t.c_frames_received + c.c_frames_received;
      t.c_decode_errors <- t.c_decode_errors + c.c_decode_errors;
      t.c_resync_skips <- t.c_resync_skips + c.c_resync_skips;
      t.c_reconnects <- t.c_reconnects + c.c_reconnects;
      t.c_frames_dropped <- t.c_frames_dropped + c.c_frames_dropped;
      t.c_out_hwm_bytes <- Int.max t.c_out_hwm_bytes c.c_out_hwm_bytes;
      t.c_write_syscalls <- t.c_write_syscalls + c.c_write_syscalls;
      t.c_read_syscalls <- t.c_read_syscalls + c.c_read_syscalls;
      t.c_wait_calls <- t.c_wait_calls + c.c_wait_calls;
      t.c_fds_ready <- t.c_fds_ready + c.c_fds_ready;
      t.c_fds_registered <- t.c_fds_registered + c.c_fds_registered;
      t.c_spin_hits <- t.c_spin_hits + c.c_spin_hits;
      t.c_spin_misses <- t.c_spin_misses + c.c_spin_misses;
      t.c_inproc_frames <- t.c_inproc_frames + c.c_inproc_frames)
    (Atomic.get s.blocks);
  Atomic.set s.frames_sent t.c_frames_sent;
  Atomic.set s.bytes_sent t.c_bytes_sent;
  Atomic.set s.frames_received t.c_frames_received;
  Atomic.set s.decode_errors t.c_decode_errors;
  Atomic.set s.resync_skips t.c_resync_skips;
  Atomic.set s.reconnects t.c_reconnects;
  Atomic.set s.frames_dropped t.c_frames_dropped;
  Atomic.set s.out_hwm_bytes t.c_out_hwm_bytes;
  Atomic.set s.write_syscalls t.c_write_syscalls;
  Atomic.set s.read_syscalls t.c_read_syscalls;
  Atomic.set s.wait_calls t.c_wait_calls;
  Atomic.set s.fds_ready t.c_fds_ready;
  Atomic.set s.fds_registered t.c_fds_registered;
  Atomic.set s.spin_hits t.c_spin_hits;
  Atomic.set s.spin_misses t.c_spin_misses;
  Atomic.set s.inproc_frames t.c_inproc_frames;
  {
    snap_frames_sent = t.c_frames_sent;
    snap_bytes_sent = t.c_bytes_sent;
    snap_frames_received = t.c_frames_received;
    snap_decode_errors = t.c_decode_errors;
    snap_resync_skips = t.c_resync_skips;
    snap_reconnects = t.c_reconnects;
    snap_frames_dropped = t.c_frames_dropped;
    snap_out_hwm_bytes = t.c_out_hwm_bytes;
    snap_write_syscalls = t.c_write_syscalls;
    snap_read_syscalls = t.c_read_syscalls;
    snap_wait_calls = t.c_wait_calls;
    snap_fds_ready = t.c_fds_ready;
    snap_fds_registered = t.c_fds_registered;
    snap_spin_hits = t.c_spin_hits;
    snap_spin_misses = t.c_spin_misses;
    snap_inproc_frames = t.c_inproc_frames;
  }

(* The timeout of the shard's next wait, in an all-float record so that
   [wait] stores it unboxed. *)
type deadline = { mutable timeout_s : float }

(* A shard's handle, made once by [adopt]: everything a wait needs is
   already resolved, so no call on it walks the shard's owners. *)
type shard = {
  shard_wait : (int -> unit) -> unit;
  shard_deadline : deadline;
  shard_wake : Wakeup.t;  (** The shard's one wake pipe. *)
}

type t = {
  name : string;
  readiness : string;
  stats : stats;
  send : src:int -> dst:int -> delay:float -> string -> unit;
  send_payload : src:int -> dst:int -> delay:float -> Buffer.t -> unit;
  poll : owner:int -> upto:float -> (Frame.view -> unit) -> unit;
  adopt : int list -> shard;
  decode_error : int -> unit;
  close : unit -> unit;
}

let name t = t.name
let readiness_backend t = t.readiness
let snapshot t = snapshot_of_stats t.stats

let stats t =
  ignore (snapshot t : snapshot);
  t.stats

let send t = t.send
let send_payload t = t.send_payload
let poll t ?(upto = infinity) ~owner f = t.poll ~owner ~upto f

let adopt t ~owners = t.adopt owners

let ignore_ready (_ : int) = ()

let[@inline] wait (_ : t) shard ?(on_ready = ignore_ready) ~timeout_s () =
  shard.shard_deadline.timeout_s <- timeout_s;
  shard.shard_wait on_ready

let wake shard = Wakeup.wake shard.shard_wake

let count_decode_error t ~owner = t.decode_error owner
let close t = t.close ()

(* Upper bound on any readiness sleep: a safety net against a lost
   wake-up, far above the hot-path cadence and far below human patience. *)
let max_wait_s = 0.25

(* Both transports resolve their shards' wait backend the same way. *)
let resolve_readiness = function
  | Some b -> Readiness.resolve ~source:"forced" b
  | None -> Readiness.default_backend ()

(* One frame carrying the payload's contents, as a string: what an
   in-process hop hands to the destination's mailbox. *)
let frame_string payload =
  let plen = Buffer.length payload in
  let frame = Bytes.create (Frame.header_length plen + plen) in
  let h = Frame.write_header frame 0 plen in
  Buffer.blit payload 0 frame h plen;
  Bytes.unsafe_to_string frame

(* Decode one whole in-process frame in place. *)
let deliver_exact c f frame =
  match Frame.decode_exact frame with
  | Ok v ->
      c.c_frames_received <- c.c_frames_received + 1;
      f v
  | Error _ -> c.c_resync_skips <- c.c_resync_skips + 1

let check_node ~what ~n i =
  if i < 0 || i >= n then
    invalid_arg (Printf.sprintf "Transport: %s node %d out of range" what i)

(* An adopt's owners, once each, every one validated before any is
   touched. *)
let claim ~n ~lookup ~adopted owners =
  List.map
    (fun i ->
      check_node ~what:"adopt owner" ~n i;
      let node = lookup i in
      if adopted node then
        invalid_arg
          (Printf.sprintf "Transport.adopt: node %d already adopted" i);
      node)
    (List.sort_uniq compare owners)

(* Unix.file_descr is an int on every Unix OCaml port; fd indexes are
   keyed by it. *)
external fd_int : Unix.file_descr -> int = "%identity"

(* ------------------------------------------------------------------ *)
(* The shard doorbell, shared by both transports                       *)
(* ------------------------------------------------------------------ *)

(* Every adopted shard sleeps in a readiness set holding its one wake
   pipe. Frames that need no fd (every loopback frame, in-process
   socket frames) reach it through [notified]: the sender pushes the
   frame, queues the destination node there once, and rings the pipe
   only if the shard had declared itself [idle]. The shard declares
   idle, then rechecks [notified] before it blocks. Each side writes
   before it reads, all through SC atomics, so either the sender sees
   [idle] and rings or the shard's recheck sees the node: no wake is
   lost, and a busy shard costs its senders no syscall. The shard
   clears a node's [queued] flag before it looks at the node's frames,
   so a frame pushed after that look notifies again. *)
type 'node doorbell = {
  rd : Readiness.t;
  wake : Wakeup.t;
  wake_fd : int;
  idle : bool Atomic.t;
  notified : 'node Mailbox.t;
  counts : counters;  (** The shard's counters. *)
}

let doorbell stats backend =
  let rd = Readiness.create ~backend () and wake = Wakeup.create () in
  let counts = counters () in
  add_block stats counts;
  Readiness.set rd (Wakeup.read_fd wake) ~read:true ~write:false;
  counts.c_fds_registered <- 1;
  {
    rd;
    wake;
    wake_fd = fd_int (Wakeup.read_fd wake);
    idle = Atomic.make false;
    notified = Mailbox.create ();
    counts;
  }

(* The sender's half, after the frame is pushed. The node's [queued]
   flag keeps it in [notified] at most once. *)
let ring bell ~queued node =
  if Atomic.compare_and_set queued false true then
    Mailbox.push bell.notified node;
  if Atomic.get bell.idle then Wakeup.wake bell.wake

(* The shard's half: declare idle, recheck, block. [on_fd] sees every
   ready fd, the wake pipe's included. Returns the number ready. *)
let block bell ~timeout_s on_fd =
  let c = bell.counts in
  Atomic.set bell.idle true;
  let timeout_s = if Mailbox.is_empty bell.notified then timeout_s else 0.0 in
  c.c_wait_calls <- c.c_wait_calls + 1;
  let ready = Readiness.wait bell.rd ~timeout_s on_fd in
  Atomic.set bell.idle false;
  c.c_fds_ready <- c.c_fds_ready + ready;
  ready

(* Drain the wake pipe, counting its reads; only when the set reported
   it. *)
let drain_wake bell =
  let c = bell.counts in
  c.c_read_syscalls <- c.c_read_syscalls + Wakeup.drain bell.wake

let close_doorbell bell =
  Readiness.close bell.rd;
  Wakeup.close bell.wake

(* ------------------------------------------------------------------ *)
(* Loopback                                                            *)
(* ------------------------------------------------------------------ *)

module Loopback = struct
  type node = {
    id : int;
    (* Cross-domain side: producers push (due, frame). *)
    inbox : (float * string) Mailbox.t;
    (* Owner-shard side: deliveries ordered by due time. *)
    pending : string Tr_sim.Pqueue.t;
    tracked : shard_set option Atomic.t;  (** Set once, by [adopt]. *)
    queued : bool Atomic.t;  (** Queued in its shard's [notified]. *)
    mutable counts : counters;
        (** Its shard's counters once adopted, the transport's before. *)
  }

  and shard_set = {
    bell : node doorbell;
    due : int Tr_sim.Pqueue.t;
        (** One (due time, node) entry per settled frame. An entry whose
            frame a poll already delivered costs one spurious activation,
            never a missed frame. *)
  }

  (* Move everything the other domains queued into the owner's heap,
     and tell the shard when each frame falls due. *)
  let settle set node =
    Atomic.set node.queued false;
    List.iter
      (fun (due, frame) ->
        Tr_sim.Pqueue.push node.pending ~time:due frame;
        Tr_sim.Pqueue.push set.due ~time:due node.id)
      (Mailbox.drain node.inbox)

  let create ?readiness ~clock ~n () =
    let rd_backend = resolve_readiness readiness in
    let base = counters () in
    let stats = make_stats base in
    let nodes =
      Array.init n (fun id ->
          {
            id;
            inbox = Mailbox.create ();
            pending = Tr_sim.Pqueue.create ();
            tracked = Atomic.make None;
            queued = Atomic.make false;
            counts = base;
          })
    in
    (* The frame must outlive the mailbox hop, so crossing domains costs
       exactly one string per frame — and that string is then decoded in
       place ([decode_exact]), never copied again. *)
    let send ~src ~dst ~delay frame =
      check_node ~what:"send src" ~n src;
      check_node ~what:"send dst" ~n dst;
      let c = nodes.(src).counts in
      c.c_frames_sent <- c.c_frames_sent + 1;
      c.c_bytes_sent <- c.c_bytes_sent + String.length frame;
      let node = nodes.(dst) in
      Mailbox.push node.inbox (Clock.now clock +. Float.max 0.0 delay, frame);
      match Atomic.get node.tracked with
      | None -> ()
      | Some set -> ring set.bell ~queued:node.queued node
    in
    let rec deliver_due c f node now =
      if
        (not (Tr_sim.Pqueue.is_empty node.pending))
        && Tr_sim.Pqueue.top_time_exn node.pending <= now
      then begin
        deliver_exact c f (Tr_sim.Pqueue.pop_exn node.pending);
        deliver_due c f node now
      end
    in
    let poll ~owner ~upto f =
      check_node ~what:"poll owner" ~n owner;
      let node = nodes.(owner) in
      match Atomic.get node.tracked with
      | None ->
          invalid_arg
            (Printf.sprintf "Transport.poll: node %d is not adopted" owner)
      | Some set ->
          settle set node;
          deliver_due set.bell.counts f node (Float.min (Clock.now clock) upto)
    in
    (* Report every owner with a frame already due; sleep only if there
       is none, until the earliest due frame, a wake or the timeout. *)
    let wait set ~timeout_s ~on_ready =
      let due_now () =
        (not (Tr_sim.Pqueue.is_empty set.due))
        && Tr_sim.Pqueue.top_time_exn set.due <= Clock.now clock
      in
      let fire () =
        while due_now () do
          on_ready (Tr_sim.Pqueue.pop_exn set.due)
        done
      in
      let settle_notified () =
        List.iter (settle set) (Mailbox.drain set.bell.notified)
      in
      settle_notified ();
      if due_now () || timeout_s <= 0.0 then fire ()
      else begin
        let timeout_s =
          if Tr_sim.Pqueue.is_empty set.due then timeout_s
          else
            Float.min timeout_s
              ((Tr_sim.Pqueue.top_time_exn set.due -. Clock.now clock)
              *. Clock.unit_s clock)
        in
        ignore
          (block set.bell ~timeout_s:(Float.min timeout_s max_wait_s)
             (fun ~fd:_ ~readable:_ ~writable:_ -> drain_wake set.bell)
            : int);
        settle_notified ();
        fire ()
      end
    in
    let shard_sets = ref [] in
    let adopt owners =
      let owned =
        claim ~n ~lookup:(Array.get nodes)
          ~adopted:(fun node -> Option.is_some (Atomic.get node.tracked))
          owners
      in
      let set =
        { bell = doorbell stats rd_backend; due = Tr_sim.Pqueue.create () }
      in
      List.iter
        (fun node ->
          node.counts <- set.bell.counts;
          Atomic.set node.tracked (Some set);
          (* Salvage half of the Dekker pair in [send]: frames sent
             before adoption carried no notification. *)
          if not (Mailbox.is_empty node.inbox) then
            ring set.bell ~queued:node.queued node)
        owned;
      shard_sets := set :: !shard_sets;
      let deadline = { timeout_s = 0.0 } in
      {
        shard_wait =
          (fun on_ready -> wait set ~timeout_s:deadline.timeout_s ~on_ready);
        shard_deadline = deadline;
        shard_wake = set.bell.wake;
      }
    in
    let decode_error owner =
      check_node ~what:"decode error owner" ~n owner;
      let c = nodes.(owner).counts in
      c.c_decode_errors <- c.c_decode_errors + 1
    in
    let close () =
      List.iter (fun set -> close_doorbell set.bell) !shard_sets;
      shard_sets := []
    in
    {
      name = "loopback";
      readiness = Readiness.backend_name rd_backend;
      stats;
      send;
      send_payload =
        (fun ~src ~dst ~delay payload ->
          send ~src ~dst ~delay (frame_string payload));
      poll;
      adopt;
      decode_error;
      close;
    }
end

(* ------------------------------------------------------------------ *)
(* Sockets (TCP / Unix-domain)                                         *)
(* ------------------------------------------------------------------ *)

module Sockets = struct
  let backoff_min = 0.01
  let backoff_max = 1.0

  (* Cap on bytes queued behind an unreachable peer. Past this, new
     frames are dropped whole (never split — that would corrupt the
     framing) and counted in [frames_dropped]. *)
  let high_water = 4 * 1024 * 1024

  (* Starting size of a peer's coalescing buffer. A frame is a dozen
     bytes and a flush empties the buffer, so most peers never hold
     more than a few frames; [append] doubles it for the ones that do. *)
  let out_initial = 256

  let close_quietly = Stream_io.close_quietly

  type conn_in = {
    fd : Unix.file_descr;
    dec : Frame.Decoder.t;
    mutable ready : bool;
        (** Queued in its node's [ready_ins]; a dropped connection stays
            [ready] for good, so nothing queues it again. *)
  }

  (* Outgoing frames coalesce into one flat buffer, flushed with a
     single [write] per poll. [bounds] remembers each queued frame's
     length so a torn-down connection can drop its partially-written
     head frame whole — resuming mid-frame on a fresh connection would
     open the stream with garbage and force a resync at the receiver. *)
  type conn_out = {
    addr : Unix.sockaddr;
    local : node option;
        (** The destination, when it is hosted here behind a Unix-domain
            address: a candidate for a socket pair. *)
    mutable fd : Unix.file_descr option;
    mutable peer : conn_in option;
        (** The receive end of this connection's socket pair, registered
            in the same shard; [None] for a dialled connection. *)
    out : Stream_io.out;
    mutable bounds : int array;
        (** Byte length of each queued frame, in order: a ring of
            power-of-two size from [bounds_head]. *)
    mutable bounds_head : int;
    mutable bounds_len : int;
    mutable head_off : int;  (** Bytes of the head frame already written. *)
    mutable backoff : float;
    mutable retry_at : float;  (** Wall time before which we won't dial. *)
    mutable in_busy : bool;  (** Queued in its node's [busy]. *)
    mutable in_retry : bool;  (** Queued in its shard set's [retry_outs]. *)
  }

  (* A node is {e tracked} once [adopt] hands it to a shard: its fds
     then live in that shard's readiness set and [poll] touches only what
     the last wait reported ready — O(ready), not O(connections). Polling
     a node before that is a caller error. *)
  and node = {
    id : int;
    listen : Unix.file_descr;
    nodelay : bool;
    mutable ins : conn_in list;
    outs : (int, conn_out) Hashtbl.t;  (** Keyed by destination node id. *)
    mutable last_dst : int;
    mutable last_out : conn_out option;
        (** [outs] at [last_dst]: a ring node always sends to the same
            successor. *)
    tracked : shard_set option Atomic.t;
        (** Set once, by [adopt]. Atomic because in-process senders on
            other domains must see the adoption (or be seen — see the
            salvage in [track_node]). *)
    mutable counts : counters;
        (** Its shard's counters once adopted, the transport's before. *)
    mutable accept_ready : bool;
    mutable ready_ins : conn_in array;
    mutable ready_len : int;
        (** Inbound connections to read, a stack: the last queued is
            read first. *)
    mutable busy : conn_out array;
    mutable busy_len : int;  (** Conns with unflushed bytes. *)
    ipc : string Mailbox.t;  (** In-process fast path: inbound frames. *)
    ipc_queued : bool Atomic.t;  (** Queued in its shard's [bell.notified]. *)
  }

  (* One per adopted shard: the doorbell's readiness set all the shard's
     fds are registered in, with the fd->peer index that turns a ready
     fd back into work in O(1). *)
  and shard_set = {
    bell : node doorbell;
        (** [notified] holds hosted nodes with undrained in-process
            frames. *)
    mutable fdx : entry array;
        (** By fd, grown on demand; fds are small dense ints. *)
    reader : Stream_io.reader;  (** One per shard, not per node. *)
    deliver : (Frame.view -> unit) -> Frame.view -> bool;
    resync : (Frame.view -> unit) -> unit;
        (** [Stream_io.read_frames]'s callbacks, built once: the poll's
            callback rides along as their context. *)
    mutable retry_outs : (node * conn_out) list;
        (** Down peers with queued bytes, waiting out their backoff. *)
    mutable hand_nodes : node array;
    mutable hand_ins : conn_in array;
    mutable hand_len : int;
        (** Paired receive ends a flush has filled since the last wait,
            with their nodes (a stack, grown on demand): work the next
            wait hands out without asking the kernel. *)
    mutable ewma_gap : float;  (** Recent inter-event gap estimate (s). *)
    mutable last_event : float;
    mutable wait_skips : int;
        (** Consecutive kernel waits elided because work was already in
            hand (bounded so every fd is still visited). *)
  }

  and entry =
    | Free
    | Listener of node
    | In of node * conn_in
    | Out of node * conn_out

  let queued co = Stream_io.queued co.out

  (* [a] with room for index [len], the new tail filled with [fill]. *)
  let room a len fill =
    if len < Array.length a then a
    else begin
      let b = Array.make (Int.max 16 (2 * len)) fill in
      Array.blit a 0 b 0 len;
      b
    end

  let push_bound co len =
    let cap = Array.length co.bounds in
    if co.bounds_len = cap then begin
      let b = Array.make (2 * cap) 0 in
      for k = 0 to cap - 1 do
        b.(k) <- co.bounds.((co.bounds_head + k) land (cap - 1))
      done;
      co.bounds <- b;
      co.bounds_head <- 0
    end;
    co.bounds.((co.bounds_head + co.bounds_len) land (Array.length co.bounds - 1))
    <- len;
    co.bounds_len <- co.bounds_len + 1

  let pop_bound co =
    let len = co.bounds.(co.bounds_head) in
    co.bounds_head <- (co.bounds_head + 1) land (Array.length co.bounds - 1);
    co.bounds_len <- co.bounds_len - 1;
    len

  (* Registration keeps the [fds_registered] gauge honest: an fd counts
     once, however often its interest mask changes. Removal must happen
     before the fd is closed (epoll auto-forgets closed fds, but the
     poll set would otherwise scan a dead descriptor). *)
  let reg set fd entry ~read ~write =
    let key = fd_int fd in
    let len = Array.length set.fdx in
    if key >= len then begin
      let bigger = Array.make (Int.max (2 * len) (key + 1)) Free in
      Array.blit set.fdx 0 bigger 0 len;
      set.fdx <- bigger
    end;
    if set.fdx.(key) == Free then begin
      set.fdx.(key) <- entry;
      let c = set.bell.counts in
      c.c_fds_registered <- c.c_fds_registered + 1
    end;
    Readiness.set set.bell.rd fd ~read ~write

  let entry_at set key =
    if key < Array.length set.fdx then set.fdx.(key) else Free

  let unreg set fd =
    let key = fd_int fd in
    if entry_at set key != Free then begin
      set.fdx.(key) <- Free;
      let c = set.bell.counts in
      c.c_fds_registered <- c.c_fds_registered - 1;
      Readiness.remove set.bell.rd fd
    end

  let tear_down set co =
    let c = set.bell.counts in
    (match co.fd with
    | Some fd ->
        unreg set fd;
        close_quietly fd
    | None -> ());
    co.fd <- None;
    co.peer <- None;
    if co.head_off > 0 then begin
      (* Drop the half-written head frame whole; its tail must not open
         the next connection mid-frame. *)
      let head = pop_bound co in
      Stream_io.advance co.out (head - co.head_off);
      co.head_off <- 0;
      c.c_frames_dropped <- c.c_frames_dropped + 1
    end;
    co.backoff <- Float.min backoff_max (Float.max backoff_min (2.0 *. co.backoff));
    co.retry_at <- Unix.gettimeofday () +. co.backoff;
    c.c_reconnects <- c.c_reconnects + 1

  (* A destination in this very shard needs neither its listener nor the
     kernel's readiness report: both ends of a socket pair are registered
     at once, the receive end as the destination's inbound connection,
     and each flush that fills it hands the destination its work (see
     [hand]). The pair is connected from the start, so the send end asks
     for writability only once a write is cut short. A failing
     [socketpair] (fd exhaustion) raises, as [socket] does in
     [connect]. *)
  let pair set node co dnode =
    let snd, rcv =
      Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
    in
    Unix.set_nonblock snd;
    Unix.set_nonblock rcv;
    let ci = { fd = rcv; dec = Frame.Decoder.create (); ready = false } in
    dnode.ins <- ci :: dnode.ins;
    reg set rcv (In (dnode, ci)) ~read:true ~write:false;
    co.fd <- Some snd;
    co.peer <- Some ci;
    reg set snd (Out (node, co)) ~read:false ~write:false

  let connect set node co =
    let fd = Unix.socket (Unix.domain_of_sockaddr co.addr) Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    (match co.addr with
    | Unix.ADDR_INET _ -> Stream_io.set_nodelay fd
    | Unix.ADDR_UNIX _ -> ());
    let connected () =
      co.fd <- Some fd;
      (* Write interest from the start: dialing only ever happens with
         bytes queued, and a connect still in progress completes as a
         writability event. *)
      reg set fd (Out (node, co)) ~read:false ~write:true
    in
    match Unix.connect fd co.addr with
    | () -> connected ()
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN | EINTR), _, _)
      ->
        connected ()
    | exception Unix.Unix_error (_, _, _) ->
        close_quietly fd;
        co.fd <- None;
        tear_down set co

  let in_shard set dnode =
    match Atomic.get dnode.tracked with Some s -> s == set | None -> false

  let dial set node co =
    match co.local with
    | Some dnode when in_shard set dnode -> pair set node co dnode
    | _ -> connect set node co

  (* Account [wrote] flushed bytes against the frame-boundary ring. *)
  let rec retire co wrote =
    if wrote > 0 then begin
      let rem = co.bounds.(co.bounds_head) - co.head_off in
      if wrote >= rem then begin
        ignore (pop_bound co : int);
        co.head_off <- 0;
        retire co (wrote - rem)
      end
      else co.head_off <- co.head_off + wrote
    end

  (* A flush filled a pair's receive end: keep it for the next wait,
     which queues it as a readiness report would. Until then no poll
     reads it, so a shard pass carries each frame one hop, as when the
     kernel reported it. *)
  let hand set co ci =
    match co.local with
    | Some dnode when not ci.ready ->
        ci.ready <- true;
        let len = set.hand_len in
        set.hand_nodes <- room set.hand_nodes len dnode;
        set.hand_ins <- room set.hand_ins len ci;
        set.hand_nodes.(len) <- dnode;
        set.hand_ins.(len) <- ci;
        set.hand_len <- len + 1
    | _ -> ()

  (* One [write] covering every queued frame; a partial write means the
     kernel buffer is full, so stop rather than spin. Sends between two
     polls therefore cost at most one syscall total. *)
  let rec flush set node co =
    if queued co > 0 then
      match co.fd with
      | None ->
          if Unix.gettimeofday () >= co.retry_at then begin
            dial set node co;
            if co.fd <> None then flush set node co
          end
      | Some fd ->
          let wrote = Stream_io.flush fd co.out in
          let c = set.bell.counts in
          c.c_write_syscalls <- c.c_write_syscalls + 1;
          if wrote >= 0 then begin
            (* A float field of a mixed record: storing it is a write
               barrier, so only a change stores. *)
            if co.backoff <> backoff_min then co.backoff <- backoff_min;
            retire co wrote;
            match co.peer with
            | Some ci when wrote > 0 -> hand set co ci
            | _ -> ()
          end
          else if wrote = Stream_io.failed then tear_down set co
          (* Otherwise still connecting, or the kernel buffer is full;
             the bytes stay queued for the next poll. *)

  let queue_in node ci =
    let len = node.ready_len in
    node.ready_ins <- room node.ready_ins len ci;
    node.ready_ins.(len) <- ci;
    node.ready_len <- len + 1

  let queue_busy node co =
    if not co.in_busy then begin
      co.in_busy <- true;
      let len = node.busy_len in
      node.busy <- room node.busy len co;
      node.busy.(len) <- co;
      node.busy_len <- len + 1
    end

  let accept_all set node =
    let rec go () =
      match Unix.accept ~cloexec:true node.listen with
      | fd, _ ->
          Unix.set_nonblock fd;
          if node.nodelay then Stream_io.set_nodelay fd;
          (* Peers dial only with bytes queued, so a fresh connection
             is read in this same poll rather than after another wait.
             Registration is level-triggered: bytes arriving later still
             report readable. *)
          let ci = { fd; dec = Frame.Decoder.create (); ready = true } in
          node.ins <- ci :: node.ins;
          queue_in node ci;
          reg set fd (In (node, ci)) ~read:true ~write:false;
          go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    in
    go ()

  (* Read everything available on one inbound connection. Returns false
     when the connection is finished (EOF or error) and should drop —
     the caller deregisters before closing. *)
  let read_conn set (ci : conn_in) f =
    let r = set.reader in
    let reads = r.Stream_io.reads in
    let open_ =
      Stream_io.read_frames r ci.fd ci.dec ~skip:set.resync ~view:set.deliver f
    in
    let c = set.bell.counts in
    c.c_read_syscalls <- c.c_read_syscalls + (r.Stream_io.reads - reads);
    open_

  let drop_in set node (ci : conn_in) =
    ci.ready <- true;
    unreg set ci.fd;
    close_quietly ci.fd;
    node.ins <- List.filter (fun c -> c != ci) node.ins

  (* Read the queued inbound connections, the last queued first. *)
  let rec read_ready set node f =
    let k = node.ready_len - 1 in
    if k >= 0 then begin
      let ci = node.ready_ins.(k) in
      node.ready_len <- k;
      ci.ready <- false;
      if not (read_conn set ci f) then drop_in set node ci;
      read_ready set node f
    end

  (* Flush every busy connection; those still holding bytes stay busy,
     in order. Write interest tracks the busy state, so an idle cluster
     registers no write-side events at all. *)
  let flush_busy set node =
    let len = node.busy_len in
    node.busy_len <- 0;
    for k = 0 to len - 1 do
      let co = node.busy.(k) in
      flush set node co;
      if queued co = 0 then begin
        co.in_busy <- false;
        match co.fd with
        | Some fd -> Readiness.set set.bell.rd fd ~read:false ~write:false
        | None -> ()
      end
      else begin
        node.busy.(node.busy_len) <- co;
        node.busy_len <- node.busy_len + 1;
        match co.fd with
        | Some fd -> reg set fd (Out (node, co)) ~read:false ~write:true
        | None ->
            if not co.in_retry then begin
              co.in_retry <- true;
              set.retry_outs <- (node, co) :: set.retry_outs
            end
      end
    done

  (* Tracked poll: touch only what readiness reported (accept_ready,
     ready_ins) plus connections with unflushed bytes (busy). *)
  let poll_tracked set node f =
    if node.accept_ready then begin
      node.accept_ready <- false;
      accept_all set node
    end;
    read_ready set node f;
    if node.busy_len > 0 then flush_busy set node

  (* Queue the paired receive ends flushed since the last wait and
     activate their nodes; whether there were any. *)
  let hand_out set on_ready =
    let handed = set.hand_len > 0 in
    for k = 0 to set.hand_len - 1 do
      let dnode = set.hand_nodes.(k) in
      queue_in dnode set.hand_ins.(k);
      on_ready dnode.id
    done;
    set.hand_len <- 0;
    handed

  (* In-process frames need no fd: the senders' notifications become
     activations. *)
  let rec activate on_ready = function
    | [] -> ()
    | (dnode : node) :: rest ->
        Atomic.set dnode.ipc_queued false;
        on_ready dnode.id;
        activate on_ready rest

  let rec deliver_all c f = function
    | [] -> ()
    | frame :: rest ->
        deliver_exact c f frame;
        deliver_all c f rest

  let env_flag name =
    match Sys.getenv_opt name with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false

  let create ?readiness ?spin ?inproc ~clock:_ ~n ~owned ~addrs () =
    Stream_io.ignore_sigpipe ();
    (* High-N clusters hit the default soft RLIMIT_NOFILE long before
       they hit any real resource limit; raise it once per process. *)
    ignore (Readiness.raise_nofile ());
    let rd_backend = resolve_readiness readiness in
    let spin_wanted =
      match spin with Some s -> s | None -> env_flag "TR_SPIN"
    in
    (* Spinning trades CPU for wake latency, which is only a trade when
       there is a spare core to burn: on a single-CPU host the idle
       shard's busy-poll steals the very cycles the working shard needs,
       and "adaptive" must include adapting to the machine. Gate loudly,
       like an unavailable readiness backend. *)
    let spin = spin_wanted && Readiness.ncpus () > 1 in
    if spin_wanted && not spin then
      Printf.eprintf
        "[transport] spin-wait requested but only one CPU is online; \
         disabling the spin window (waits block immediately)\n\
         %!";
    let inproc =
      match inproc with Some i -> i | None -> env_flag "TR_INPROC"
    in
    if Array.length addrs <> n then
      invalid_arg "Transport.sockets: addrs array must have one entry per node";
    List.iter (fun i -> check_node ~what:"owned" ~n i) owned;
    let base = counters () in
    let stats = make_stats base in
    let hosted = Array.make n None in
    (try
       List.iter
         (fun i ->
           hosted.(i) <-
             Some
               {
                 id = i;
                 listen = Stream_io.listen addrs.(i);
                 nodelay =
                   (match addrs.(i) with
                   | Unix.ADDR_INET _ -> true
                   | Unix.ADDR_UNIX _ -> false);
                 ins = [];
                 outs = Hashtbl.create 4;
                 last_dst = -1;
                 last_out = None;
                 tracked = Atomic.make None;
                 counts = base;
                 accept_ready = false;
                 ready_ins = [||];
                 ready_len = 0;
                 busy = [||];
                 busy_len = 0;
                 ipc = Mailbox.create ();
                 ipc_queued = Atomic.make false;
               })
         owned
     with e ->
       (* Release the listeners bound before the failing one. *)
       Array.iter
         (Option.iter (fun node ->
              close_quietly node.listen;
              Stream_io.unlink_listener addrs.(node.id)))
         hosted;
       raise e);
    let host ~what i =
      match hosted.(i) with
      | Some node -> node
      | None ->
          invalid_arg
            (Printf.sprintf "Transport.sockets: %s node %d is not hosted here"
               what i)
    in
    let out_conn node dst =
      match node.last_out with
      | Some co when node.last_dst = dst -> co
      | _ ->
          let co =
            match Hashtbl.find_opt node.outs dst with
            | Some co -> co
            | None ->
                let co =
                  {
                    addr = addrs.(dst);
                    local =
                      (match addrs.(dst) with
                      | Unix.ADDR_UNIX _ -> hosted.(dst)
                      | Unix.ADDR_INET _ -> None);
                    fd = None;
                    peer = None;
                    out = Stream_io.out out_initial;
                    bounds = Array.make 16 0;
                    bounds_head = 0;
                    bounds_len = 0;
                    head_off = 0;
                    backoff = backoff_min;
                    retry_at = 0.0;
                    in_busy = false;
                    in_retry = false;
                  }
                in
                Hashtbl.replace node.outs dst co;
                co
          in
          node.last_dst <- dst;
          node.last_out <- Some co;
          co
    in
    (* In-process delivery: the frame goes straight into the hosted
       destination's mailbox as one string (wire-format identical to
       what the socket would carry), then rings the destination shard's
       doorbell. A sender that finds the destination unadopted leaves
       the notification to [track_node]'s salvage. *)
    let deliver_inproc c dnode frame =
      c.c_frames_sent <- c.c_frames_sent + 1;
      c.c_bytes_sent <- c.c_bytes_sent + String.length frame;
      c.c_inproc_frames <- c.c_inproc_frames + 1;
      Mailbox.push dnode.ipc frame;
      match Atomic.get dnode.tracked with
      | None -> ()
      | Some dset -> ring dset.bell ~queued:dnode.ipc_queued dnode
    in
    (* Whether [co] takes a [len]-byte frame, which is then counted sent;
       one it refuses is counted dropped. *)
    let admit c co len =
      if queued co + len > high_water then begin
        c.c_frames_dropped <- c.c_frames_dropped + 1;
        false
      end
      else begin
        c.c_frames_sent <- c.c_frames_sent + 1;
        c.c_bytes_sent <- c.c_bytes_sent + len;
        true
      end
    in
    (* After an append: the frame's bound, the monotone max of any single
       peer's backlog (how close the run came to the high-water drop
       threshold), and the busy mark. Only [poll] flushes, so a burst of
       sends inside one loop iteration shares a single write syscall. *)
    let appended c node co len =
      push_bound co len;
      let q = queued co in
      if q > c.c_out_hwm_bytes then c.c_out_hwm_bytes <- q;
      queue_busy node co
    in
    (* The hosted destination of an in-process send, if this is one. *)
    let inproc_dst ~src dst =
      if inproc && dst >= 0 && dst < n && hosted.(dst) <> None then begin
        check_node ~what:"send src" ~n src;
        ignore (host ~what:"send src" src);
        hosted.(dst)
      end
      else None
    in
    let send ~src ~dst ~delay:_ frame =
      match inproc_dst ~src dst with
      | Some dnode ->
          deliver_inproc (host ~what:"send src" src).counts dnode frame
      | None ->
          check_node ~what:"send dst" ~n dst;
          let node = host ~what:"send src" src in
          let co = out_conn node dst and len = String.length frame in
          if admit node.counts co len then begin
            Stream_io.append co.out ~len (fun dst_buf dst_off ->
                Bytes.blit_string frame 0 dst_buf dst_off len);
            appended node.counts node co len
          end
    in
    (* The hop path: the payload is framed straight into the out
       buffer. *)
    let send_payload ~src ~dst ~delay:_ payload =
      match inproc_dst ~src dst with
      | Some dnode ->
          deliver_inproc (host ~what:"send src" src).counts dnode
            (frame_string payload)
      | None ->
          check_node ~what:"send dst" ~n dst;
          let node = host ~what:"send src" src in
          let co = out_conn node dst and len = Stream_io.frame_length payload in
          if admit node.counts co len then begin
            Stream_io.append_frame co.out payload;
            appended node.counts node co len
          end
    in
    let poll ~owner ~upto:_ f =
      (* Socket arrival times are physical: any buffered byte arrived in
         the past, so an [upto] bound can never exclude it. *)
      let node = host ~what:"poll owner" owner in
      match Atomic.get node.tracked with
      | None ->
          invalid_arg
            (Printf.sprintf "Transport.poll: node %d is not adopted" owner)
      | Some set ->
          (* In-process fast path: frames co-resident nodes pushed
             straight into this node's mailbox — no fd, no syscall. *)
          if inproc then deliver_all set.bell.counts f (Mailbox.drain node.ipc);
          poll_tracked set node f
    in
    (* Every adopted shard's set, so close can release the epoll fds. *)
    let shard_sets = ref [] in
    (* Move a node into a shard's readiness set. Only tracked polls
       accept or dial, so an unadopted node owns no connection yet: its
       listener is all there is to register, and sends queued before
       adoption already sit in [busy] for the first poll to flush. The
       accept flag makes that first poll accept (and read) whatever
       peers dialed before it, so a shard's first pass carries a frame
       across as many of its nodes as it reaches, without a wait. *)
    let track_node set node =
      node.counts <- set.bell.counts;
      Atomic.set node.tracked (Some set);
      (* Salvage: frames that arrived while this node was unadopted
         carried no notification — queue one now, before the shard's
         first wait. *)
      if not (Mailbox.is_empty node.ipc) then
        ring set.bell ~queued:node.ipc_queued node;
      reg set node.listen (Listener node) ~read:true ~write:false;
      node.accept_ready <- true
    in
    (* Block in the shard's readiness set until an owner's fd is ready;
       each event is dispatched through the fd index and surfaced to the
       caller as an [on_ready owner] activation, so the shard loop knows
       exactly which nodes to poll — no per-node scan at any point. *)
    let visit set ~in_hand ~timeout_s ~on_ready =
      let c = set.bell.counts in
      let timeout = ref (Float.max 0.0 (Float.min timeout_s max_wait_s)) in
      if in_hand then timeout := 0.0;
      (* Down peers with queued bytes wake their owner when the backoff
         expires; until then they bound the sleep. *)
      if set.retry_outs <> [] then begin
        let now = Unix.gettimeofday () in
        set.retry_outs <-
          List.filter
            (fun (node, co) ->
              if co.fd <> None || queued co = 0 then begin
                co.in_retry <- false;
                false
              end
              else if co.retry_at <= now then begin
                co.in_retry <- false;
                queue_busy node co;
                on_ready node.id;
                timeout := 0.0;
                false
              end
              else begin
                timeout := Float.min !timeout (co.retry_at -. now);
                true
              end)
            set.retry_outs
      end;
      (* Adaptive spin: before paying the blocking syscall, busy-poll
         the one signal visible from user space alone — the in-process
         mailbox — for a window sized by the recent inter-event gap. A
         hit turns the kernel wait into a free zero-timeout drain; a
         miss costs a few microseconds of CPU. Spinning adds zero
         syscalls either way. *)
      (if spin && !timeout > 0.0 && inproc then begin
         let signal () = not (Mailbox.is_empty set.bell.notified) in
         let budget = Float.min 100e-6 (Float.max 2e-6 (4.0 *. set.ewma_gap)) in
         let t0 = Unix.gettimeofday () in
         let hit = ref (signal ()) in
         while (not !hit) && Unix.gettimeofday () -. t0 < budget do
           Domain.cpu_relax ();
           hit := signal ()
         done;
         if !hit then begin
           c.c_spin_hits <- c.c_spin_hits + 1;
           timeout := 0.0
         end
         else c.c_spin_misses <- c.c_spin_misses + 1
       end);
      (* Work in hand skips the kernel here too, once the retries are
         settled (see [wait]). *)
      if in_hand && !timeout <= 0.0 && set.wait_skips < 63 then
        set.wait_skips <- set.wait_skips + 1
      else begin
        set.wait_skips <- 0;
        (* Idle-Out connections torn down by the peer (ERR/HUP with zero
           write interest) are collected here and dropped only after the
           dispatch loop finishes: Readiness.wait's callback must not
           mutate the set, and an eager remove would swap-compact the
           poll backend's dense arrays mid-iteration. *)
        let dead_outs = ref [] in
        let ready =
          block set.bell ~timeout_s:!timeout
            (fun ~fd ~readable ~writable ->
              if fd = set.bell.wake_fd then drain_wake set.bell
              else
              match entry_at set fd with
              | Free -> ()
              | Listener node ->
                  if readable then begin
                    node.accept_ready <- true;
                    on_ready node.id
                  end
              | In (node, ci) ->
                  if readable && not ci.ready then begin
                    ci.ready <- true;
                    queue_in node ci;
                    on_ready node.id
                  end
              | Out (node, co) ->
                  if queued co = 0 then begin
                    (* Zero interest, yet an event: only ERR/HUP can land
                       here — the peer closed an idle connection. Drop it
                       (deferred) or level-triggered epoll reports it on
                       every wait. *)
                    match co.fd with
                    | Some cfd when fd_int cfd = fd ->
                        dead_outs := (cfd, co) :: !dead_outs
                    | _ -> ()
                  end
                  else if writable then on_ready node.id)
        in
        List.iter
          (fun (cfd, co) ->
            unreg set cfd;
            close_quietly cfd;
            co.fd <- None;
            co.peer <- None)
          !dead_outs;
        activate on_ready (Mailbox.drain set.bell.notified);
        (* Only the spin window reads the gap estimate. *)
        if spin && ready > 0 then begin
          let now = Unix.gettimeofday () in
          let gap = Float.max 1e-6 (now -. set.last_event) in
          set.ewma_gap <- (0.875 *. set.ewma_gap) +. (0.125 *. gap);
          set.last_event <- now
        end
      end
    in
    (* Paired and in-process work first: their nodes are known without
       the kernel. With such work in hand, the kernel visit can be pure
       overhead: there is nothing to block for (timeout 0). The absence
       of other socket events (accepts, frames from other shards and
       processes) cannot be proved from user space, so skips are
       bounded: every 64th wait visits the kernel and picks up whatever
       accrued. A skip allocates nothing. *)
    let wait set deadline on_ready =
      let handed = hand_out set on_ready in
      (* A read, not an exchange, when nothing was notified. *)
      let woken =
        if Mailbox.is_empty set.bell.notified then []
        else Mailbox.drain set.bell.notified
      in
      activate on_ready woken;
      let in_hand = handed || match woken with [] -> false | _ -> true in
      match set.retry_outs with
      | [] when in_hand && set.wait_skips < 63 ->
          set.wait_skips <- set.wait_skips + 1
      | _ -> visit set ~in_hand ~timeout_s:deadline.timeout_s ~on_ready
    in
    (* Build the shard's set with its wake pipe and listeners
       registered, once. *)
    let adopt owners =
      let adopted node = Option.is_some (Atomic.get node.tracked) in
      let nodes =
        claim ~n ~lookup:(host ~what:"adopt owner") ~adopted owners
      in
      let bell = doorbell stats rd_backend in
      let c = bell.counts in
      let set =
        {
          bell;
          fdx = Array.make 256 Free;
          reader = Stream_io.reader ();
          deliver =
            (fun f v ->
              c.c_frames_received <- c.c_frames_received + 1;
              f v;
              true);
          resync = (fun _ -> c.c_resync_skips <- c.c_resync_skips + 1);
          retry_outs = [];
          hand_nodes = [||];
          hand_ins = [||];
          hand_len = 0;
          ewma_gap = 1e-3;
          last_event = Unix.gettimeofday ();
          (* The first wait visits the kernel: it has no earlier
             visit to count from. *)
          wait_skips = 63;
        }
      in
      List.iter (track_node set) nodes;
      shard_sets := set :: !shard_sets;
      let deadline = { timeout_s = 0.0 } in
      {
        shard_wait = wait set deadline;
        shard_deadline = deadline;
        shard_wake = set.bell.wake;
      }
    in
    let decode_error owner =
      let c = (host ~what:"decode error owner" owner).counts in
      c.c_decode_errors <- c.c_decode_errors + 1
    in
    let close () =
      Array.iter
        (function
          | None -> ()
          | Some node ->
              close_quietly node.listen;
              List.iter (fun (ci : conn_in) -> close_quietly ci.fd) node.ins;
              Hashtbl.iter
                (fun _ co ->
                  match co.fd with Some fd -> close_quietly fd | None -> ())
                node.outs;
              Stream_io.unlink_listener addrs.(node.id))
        hosted;
      List.iter (fun set -> close_doorbell set.bell) !shard_sets;
      shard_sets := []
    in
    let name =
      if n > 0 then
        match addrs.(0) with
        | Unix.ADDR_UNIX _ -> "unix"
        | Unix.ADDR_INET _ -> "tcp"
      else "tcp"
    in
    {
      name;
      readiness = Readiness.backend_name rd_backend;
      stats;
      send;
      send_payload;
      poll;
      adopt;
      decode_error;
      close;
    }
end

let loopback ?readiness ~clock ~n () = Loopback.create ?readiness ~clock ~n ()

let sockets ?readiness ?spin ?inproc ~clock ~n ~owned ~addrs () =
  Sockets.create ?readiness ?spin ?inproc ~clock ~n ~owned ~addrs ()

let uds_addrs ~dir ~n =
  Array.init n (fun i ->
      Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "node-%d.sock" i)))

let tcp_addrs ?(host = "127.0.0.1") ~base_port ~n () =
  let ip = Unix.inet_addr_of_string host in
  Array.init n (fun i -> Unix.ADDR_INET (ip, base_port + i))
