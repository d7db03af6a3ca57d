/* CPU time (user + system) of a whole process in nanoseconds, for the
   harness's per-request CPU figures.  /proc/<pid>/stat counts in clock
   ticks of 10 ms, far coarser than one request; the process CPU clock
   of clock_getcpuclockid reads any process of the caller's pid namespace
   to the nanosecond.  Both return -1 when the process is gone. */

#include <caml/mlvalues.h>
#include <sys/types.h>
#include <time.h>

CAMLprim value perfbench_cpu_clock(value pid)
{
  clockid_t clk;
  if (clock_getcpuclockid((pid_t)Long_val(pid), &clk) != 0) return Val_long(-1);
  return Val_long((intnat)clk);
}

CAMLprim value perfbench_cpu_ns(value clk)
{
  struct timespec ts;
  if (clock_gettime((clockid_t)Long_val(clk), &ts) != 0) return Val_long(-1);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
