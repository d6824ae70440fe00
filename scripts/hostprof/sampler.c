// SIGPROF backtrace sampler, loaded with LD_PRELOAD.
//
// Every millisecond of process CPU time (the kernel checks CPU-time timers
// once per scheduler tick, so the rate reached is at most CONFIG_HZ, e.g.
// 250 per CPU-second) the kernel sends SIGPROF; the handler records the
// interrupted PC and the unwound call stack into a preallocated buffer. At
// exit the samples and the process's memory map are written to $HOSTPROF_OUT
// for report.py, which resolves them with addr2line. Without HOSTPROF_OUT
// the sampler does not start.
//
// The stack comes from glibc's backtrace() (the libgcc unwinder reading
// .eh_frame), so frames without frame pointers, libc and resumed coroutine
// frames all unwind. backtrace() is called once at load so its lazy loading
// of libgcc_s does not happen inside the handler.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

enum { kMaxDepth = 64, kCapacity = 1 << 23 };  // words: ~64 MiB, lazily paged

// Flat sample records: [depth, pc, caller, caller's caller, ...].
static uintptr_t g_buf[kCapacity];
static atomic_size_t g_used;
static atomic_size_t g_dropped;

static void on_sigprof(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  const int saved_errno = errno;
  void* frames[kMaxDepth];
  const int n = backtrace(frames, kMaxDepth);
  const uintptr_t pc =
      (uintptr_t)((ucontext_t*)ctx)->uc_mcontext.gregs[REG_RIP];
  // Frames up to the signal trampoline belong to this handler; the stack
  // proper starts after the entry equal to the interrupted PC.
  int first = n;
  for (int i = 0; i < n; ++i)
    if ((uintptr_t)frames[i] == pc) {
      first = i + 1;
      break;
    }
  const size_t depth = 1 + (size_t)(n - first);
  const size_t at = atomic_fetch_add(&g_used, depth + 1);
  if (at + depth + 1 > kCapacity) {
    atomic_fetch_add(&g_dropped, 1);
    errno = saved_errno;
    return;
  }
  g_buf[at] = depth;
  g_buf[at + 1] = pc;
  for (int i = first; i < n; ++i)
    g_buf[at + 2 + (size_t)(i - first)] = (uintptr_t)frames[i];
  errno = saved_errno;
}

static const char* g_path;

static void write_profile(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  FILE* out = fopen(g_path, "w");
  if (!out) return;
  FILE* maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps && fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
  if (maps) fclose(maps);
  size_t used = atomic_load(&g_used);
  if (used > kCapacity) used = kCapacity;
  for (size_t at = 0; at < used && g_buf[at] != 0;) {
    const size_t depth = g_buf[at];
    if (at + 1 + depth > used) break;
    fputs("s", out);
    for (size_t i = 0; i < depth; ++i)
      fprintf(out, " %lx", (unsigned long)g_buf[at + 1 + i]);
    fputs("\n", out);
    at += depth + 1;
  }
  fprintf(out, "dropped %zu\n", atomic_load(&g_dropped));
  fclose(out);
}

__attribute__((constructor)) static void start_sampler(void) {
  g_path = getenv("HOSTPROF_OUT");
  if (!g_path) {
    fputs("hostprof: HOSTPROF_OUT is not set; not sampling\n", stderr);
    return;
  }
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  atexit(write_profile);
  struct itimerval every = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every, NULL);
}
