/* System calls the suite needs and the stdlib lacks. */

#include <time.h>
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

/* Monotonic clock in nanoseconds. Epoch seconds in a double only
   resolve about 0.2 us today, too coarse for socket hops of a few
   microseconds. */
value bench_clock_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* CPU time in nanoseconds, of the calling thread (0) or of the whole
   process (1). The kernel counts only time the thread actually ran: not
   time it waited for a CPU, and, on a guest with steal-time accounting,
   not time the hypervisor gave its vCPU to another guest. */
value bench_cpu_ns(value process)
{
  struct timespec ts;
  clock_gettime(Bool_val(process) ? CLOCK_PROCESS_CPUTIME_ID
                                  : CLOCK_THREAD_CPUTIME_ID,
                &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* Timer slack of the calling thread. The kernel lets a timed wait end
   up to the thread's slack late (50 us by default), which would make the
   open-loop generator send late by that much; the generator asks for
   1 ns, and 0 restores the default. */
value bench_set_timerslack(value ns)
{
#ifdef __linux__
  return Val_bool(prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0) == 0);
#else
  (void)ns;
  return Val_false;
#endif
}
