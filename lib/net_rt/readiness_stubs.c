/* Readiness backend stubs: level-triggered epoll on Linux, poll(2) as
   the portable fallback, plus the small pieces of process plumbing the
   high-N cluster needs (RLIMIT_NOFILE raising, timer slack).

   All fds cross the boundary as plain ints — Unix.file_descr is an int
   on every Unix OCaml port. Blocking waits release the OCaml runtime
   lock so other domains keep running; while the lock is released a
   stop-the-world GC may move any heap block (the backend's result
   arrays included), so every value touched after reacquisition is
   registered as a root with CAMLparam, and errno is captured inside
   the blocking section before pending OCaml actions can clobber it. */

#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/prctl.h>
#endif

/* Interest/result bits shared with readiness.ml. */
#define TR_RD_READ 1
#define TR_RD_WRITE 2

static void tr_rd_fail_err(const char *what, int err)
{
  char msg[256];
  snprintf(msg, sizeof(msg), "Readiness: %s failed: %s", what, strerror(err));
  caml_failwith(msg);
}

static void tr_rd_fail(const char *what) { tr_rd_fail_err(what, errno); }

CAMLprim value tr_rd_has_epoll(value unit)
{
#ifdef __linux__
  return Val_true;
#else
  return Val_false;
#endif
}

#ifdef __linux__

CAMLprim value tr_rd_epoll_create(value unit)
{
  int fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd == -1) tr_rd_fail("epoll_create1");
  return Val_int(fd);
}

/* op: 0 = add, 1 = modify, 2 = delete. events: TR_RD_* bits. */
CAMLprim value tr_rd_epoll_ctl(value epfd, value op, value fd, value events)
{
  struct epoll_event ev;
  int ops[3] = { EPOLL_CTL_ADD, EPOLL_CTL_MOD, EPOLL_CTL_DEL };
  memset(&ev, 0, sizeof(ev));
  if (Int_val(events) & TR_RD_READ) ev.events |= EPOLLIN;
  if (Int_val(events) & TR_RD_WRITE) ev.events |= EPOLLOUT;
  ev.data.fd = Int_val(fd);
  if (epoll_ctl(Int_val(epfd), ops[Int_val(op)], Int_val(fd), &ev) == -1)
    tr_rd_fail("epoll_ctl");
  return Val_unit;
}

#define TR_RD_MAX_EVENTS 512

/* Wait up to timeout_ns (nanoseconds; 0 polls) and write up to
   [Array.length fds] ready descriptors into fds/flags. Returns the
   ready count; EINTR reads as "nothing ready". epoll_pwait2 gives
   nanosecond timeouts where available; older kernels fall back to
   millisecond epoll_wait, rounding the timeout up so a short sleep
   never spins. */
CAMLprim value tr_rd_epoll_wait(value epfd, value fds, value flags,
                                value timeout_ns)
{
  CAMLparam4(epfd, fds, flags, timeout_ns);
  struct epoll_event evs[TR_RD_MAX_EVENTS];
  int cap = Wosize_val(fds);
  int ep = Int_val(epfd);
  int n, i, err;
  long long ns = Long_val(timeout_ns);
  if (cap > TR_RD_MAX_EVENTS) cap = TR_RD_MAX_EVENTS;
  caml_enter_blocking_section();
#if defined(__GLIBC__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 35)
#define TR_RD_HAVE_PWAIT2 1
#endif
#endif
#ifdef TR_RD_HAVE_PWAIT2
  {
    struct timespec ts;
    ts.tv_sec = ns / 1000000000LL;
    ts.tv_nsec = ns % 1000000000LL;
    n = epoll_pwait2(ep, evs, cap, &ts, NULL);
    if (n == -1 && errno == ENOSYS) {
      int ms = (int)((ns + 999999LL) / 1000000LL);
      n = epoll_wait(ep, evs, cap, ms);
    }
  }
#else
  n = epoll_wait(ep, evs, cap, (int)((ns + 999999LL) / 1000000LL));
#endif
  err = errno;
  caml_leave_blocking_section();
  if (n == -1) {
    if (err == EINTR) CAMLreturn(Val_int(0));
    tr_rd_fail_err("epoll_wait", err);
  }
  /* fds/flags are roots, so they track the arrays even if a GC moved
     them while this domain was blocked. */
  for (i = 0; i < n; i++) {
    int f = 0;
    /* Errors and hangups surface as readability (a read returns the
       error or EOF) and writability (the flush attempt fails and tears
       the connection down) so callers need no third path. */
    if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP))
      f |= TR_RD_READ;
    if (evs[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) f |= TR_RD_WRITE;
    Field(fds, i) = Val_int(evs[i].data.fd);
    Field(flags, i) = Val_int(f);
  }
  CAMLreturn(Val_int(n));
}

#else /* !__linux__ */

CAMLprim value tr_rd_epoll_create(value unit)
{
  caml_failwith("Readiness: epoll backend unavailable on this platform");
}

CAMLprim value tr_rd_epoll_ctl(value epfd, value op, value fd, value events)
{
  caml_failwith("Readiness: epoll backend unavailable on this platform");
}

CAMLprim value tr_rd_epoll_wait(value epfd, value fds, value flags,
                                value timeout_ns)
{
  caml_failwith("Readiness: epoll backend unavailable on this platform");
}

#endif

/* poll(2) over parallel int arrays: fds.(i) with interest events.(i)
   (TR_RD_* bits); result bits land in revents.(i). Returns the number
   of entries with a non-zero result. One malloc per call — the poll
   backend is O(nfds) in the kernel anyway; it exists as the portable
   fallback, not the fast path. */
CAMLprim value tr_rd_poll(value fds, value events, value revents, value nfds,
                          value timeout_ns)
{
  CAMLparam5(fds, events, revents, nfds, timeout_ns);
  int n = Int_val(nfds);
  int ready, i, err;
  long long ns = Long_val(timeout_ns);
  struct timespec ts;
  struct pollfd *pfds = malloc(sizeof(struct pollfd) * (n > 0 ? n : 1));
  if (pfds == NULL) caml_failwith("Readiness: poll buffer allocation failed");
  for (i = 0; i < n; i++) {
    pfds[i].fd = Int_val(Field(fds, i));
    pfds[i].events = 0;
    pfds[i].revents = 0;
    if (Int_val(Field(events, i)) & TR_RD_READ) pfds[i].events |= POLLIN;
    if (Int_val(Field(events, i)) & TR_RD_WRITE) pfds[i].events |= POLLOUT;
  }
  ts.tv_sec = ns / 1000000000LL;
  ts.tv_nsec = ns % 1000000000LL;
  caml_enter_blocking_section();
#ifdef __linux__
  ready = ppoll(pfds, n, &ts, NULL);
#else
  ready = poll(pfds, n, (int)((ns + 999999LL) / 1000000LL));
#endif
  err = errno;
  caml_leave_blocking_section();
  /* revents is a root, so it tracks the array even if a GC moved it
     while this domain was blocked. The dense arrays start small enough
     to live on the minor heap, where motion is the common case. */
  if (ready == -1) {
    free(pfds);
    if (err == EINTR) {
      for (i = 0; i < n; i++) Field(revents, i) = Val_int(0);
      CAMLreturn(Val_int(0));
    }
    tr_rd_fail_err("poll", err);
  }
  for (i = 0; i < n; i++) {
    int f = 0;
    if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL))
      f |= TR_RD_READ;
    if (pfds[i].revents & (POLLOUT | POLLERR | POLLHUP)) f |= TR_RD_WRITE;
    Field(revents, i) = Val_int(f);
  }
  free(pfds);
  CAMLreturn(Val_int(ready));
}

/* Raise RLIMIT_NOFILE as far as this process may: first to a megafd
   ceiling (works with CAP_SYS_RESOURCE — containers often run as
   root with low defaults), else soft up to hard. Returns the resulting
   soft limit; never fails. */
CAMLprim value tr_rd_raise_nofile(value unit)
{
  struct rlimit rl;
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return Val_int(1024);
  {
    struct rlimit want;
    want.rlim_cur = 1048576;
    want.rlim_max = 1048576;
    if (rl.rlim_max != RLIM_INFINITY && rl.rlim_max > want.rlim_max)
      want.rlim_max = rl.rlim_max;
    if (setrlimit(RLIMIT_NOFILE, &want) == 0) return Val_int(want.rlim_cur);
  }
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    if (setrlimit(RLIMIT_NOFILE, &rl) == 0) return Val_int(rl.rlim_cur);
  }
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return Val_int(1024);
  return Val_int(rl.rlim_cur == RLIM_INFINITY ? 1 << 30 : (long)rl.rlim_cur);
}

CAMLprim value tr_rd_ncpus(value unit)
{
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return Val_int(n > 0 ? (int)n : 1);
}

/* Timer slack is how late the kernel may fire the calling thread's
   timed waits, to batch wakeups (50 us by default). Returns whether the
   kernel accepted. */
CAMLprim value tr_rd_set_timer_slack(value ns)
{
#ifdef __linux__
  return Val_bool(prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0,
                        0, 0) == 0);
#else
  return Val_false;
#endif
}
