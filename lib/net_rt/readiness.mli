(** Level-triggered fd-readiness sets with an epoll-class fast path.

    This is the core under {!Transport.wait}: descriptors are registered
    {e once} and the kernel reports only the ready ones, so a wait costs
    O(ready) instead of rescanning every descriptor — the difference
    between an 8-node demo and a 10k-node cluster.

    Two backends share one interface:

    - {b epoll} (Linux): persistent kernel interest list, O(ready)
      dispatch, no fd-count ceiling. Level-triggered, so a frame left
      unread keeps reporting — no edge-trigger starvation bugs.
    - {b poll}: portable [poll(2)]. The interest array is maintained
      incrementally on the OCaml side but the kernel still scans every
      entry per wait — O(registered), no fd-count ceiling. Always
      available, so it is the fallback for every platform without
      epoll.

    The default backend is epoll where available, else poll,
    overridable with [TR_READINESS=epoll|poll]. An unknown forced value
    fails loudly; a forced epoll on a platform without it falls back
    loudly (stderr) to poll via {!resolve}, so benchmark labels are
    never silently wrong — the backend actually used is always
    reported by {!backend}.

    A set must only be used from one domain at a time; the transport
    gives each shard its own. *)

type backend = Epoll | Poll

val backend_name : backend -> string
(** ["epoll"] or ["poll"]. *)

val backend_of_string : string -> (backend, string) result
(** Parse a [TR_READINESS] value; [Error] explains the choices. *)

val available : backend -> bool
(** Whether this build can create the backend ([Poll] always; [Epoll]
    only on Linux). *)

val resolve : ?source:string -> backend -> backend
(** [b] itself when available, else [Poll], announced with a loud
    one-line warning on stderr naming [source] (e.g. ["TR_READINESS"],
    ["--readiness"]). *)

val default_backend : unit -> backend
(** [TR_READINESS] if set (an empty value reads as unset; an
    unavailable value resolves loudly to poll), else epoll where
    available, else poll.
    @raise Failure if [TR_READINESS] names an unknown backend. *)

type t

val create : ?backend:backend -> unit -> t
(** A fresh empty set. [backend] defaults to {!default_backend}.
    @raise Failure if the requested backend is unavailable here. *)

val backend : t -> backend

val set : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Register [fd] (or update its interest if already registered). A
    registration with neither interest stays in the set but reports
    nothing. *)

val remove : t -> Unix.file_descr -> unit
(** Forget [fd]; a no-op if it was never registered. Must be called
    {e before} closing the descriptor. *)

val fds_registered : t -> int

val wait :
  t -> timeout_s:float -> (fd:int -> readable:bool -> writable:bool -> unit) -> int
(** Block until at least one registered fd is ready or the timeout
    elapses; invoke the callback once per ready fd and return the ready
    count. Errors and hangups are reported as readable (and writable,
    when write interest was registered) so the caller's read/flush
    discovers them. The callback must not mutate this set. A signal
    interruption reads as zero ready. *)

val close : t -> unit

(** {1 Process plumbing for high-N clusters} *)

val raise_nofile : unit -> int
(** Raise [RLIMIT_NOFILE] as far as permitted (idempotent; memoised) and
    return the resulting soft limit. A 10k-node single-process ring
    needs ~3 fds per node — far beyond most default soft limits. *)

val ncpus : unit -> int

val set_timer_slack_ns : int -> bool
(** Set how late the kernel may fire the calling domain's timed waits
    ([PR_SET_TIMERSLACK]; Linux's default is 50 us). Returns whether the
    kernel accepted; [false] off Linux. *)
