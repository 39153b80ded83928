/* The per-hop calls of a live socket cluster that never block: read and
   write on an O_NONBLOCK socket, and the monotonic clock.

   Unlike Unix.read/Unix.write these keep the domain lock across the
   syscall and work on the OCaml bytes in place. Releasing the lock
   (caml_enter_blocking_section) only pays when the call can block: it
   lets the domain's other threads run and lets a stop-the-world
   collection start without this domain. A non-blocking socket call
   returns at once -- with data, with the count the kernel buffer took,
   or with EAGAIN -- so holding the lock delays a collection by at most
   one such call. Holding it is also what makes the in-place access
   safe: nothing allocates and no collection can run while the kernel
   copies to or from the buffer, so the block cannot move under it, and
   the 64 KB bounce copy the stdlib makes for a released-lock call is
   not needed.

   Every function here is [@@noalloc]: none allocates, raises or
   touches the runtime lock. Errors come back as a negative class, not
   an exception: */
#define TR_IO_AGAIN (-1)      /* EAGAIN/EWOULDBLOCK/EINTR: try later */
#define TR_IO_CONNECTING (-2) /* ENOTCONN/EINPROGRESS/EALREADY */
#define TR_IO_FAILED (-3)     /* anything else */

#include <errno.h>
#include <time.h>
#include <unistd.h>

#include <caml/mlvalues.h>

static value tr_io_result(ssize_t n)
{
  if (n >= 0) return Val_long(n);
  switch (errno) {
  case EAGAIN:
#if EWOULDBLOCK != EAGAIN
  case EWOULDBLOCK:
#endif
  case EINTR:
    return Val_long(TR_IO_AGAIN);
  case ENOTCONN:
  case EINPROGRESS:
  case EALREADY:
    return Val_long(TR_IO_CONNECTING);
  default:
    return Val_long(TR_IO_FAILED);
  }
}

/* The caller has checked pos and len against the buffer. */
CAMLprim value tr_io_read(value fd, value buf, value pos, value len)
{
  return tr_io_result(
      read(Int_val(fd), Bytes_val(buf) + Long_val(pos), Long_val(len)));
}

CAMLprim value tr_io_write(value fd, value buf, value pos, value len)
{
  return tr_io_result(
      write(Int_val(fd), Bytes_val(buf) + Long_val(pos), Long_val(len)));
}

/* CLOCK_MONOTONIC in nanoseconds: 63-bit ints hold 146 years of it. */
CAMLprim value tr_clock_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
