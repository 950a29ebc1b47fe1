/* LD_PRELOAD SIGPROF sampler. Arms ITIMER_PROF at $HOSTPROF_HZ (default
 * 1000) per CPU-second; the handler writes the interrupted RIP and the
 * frame-pointer chain above it into a buffer preallocated for
 * $HOSTPROF_SAMPLES samples (default 200000). At exit the buffer and
 * /proc/self/maps go to $HOSTPROF_OUT (default hostprof-samples.txt).
 *
 *   cc -O2 -fPIC -shared -o sampler.so sampler.c
 *   LD_PRELOAD=$PWD/sampler.so ./program
 */
#define _GNU_SOURCE
#include "dump.h"
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

static uint64_t *buf;
static size_t cap, used;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    size_t at = __atomic_fetch_add(&used, DEPTH, __ATOMIC_RELAXED);
    if (at + DEPTH > cap) return;
    const greg_t *regs = ((ucontext_t *)context)->uc_mcontext.gregs;
    buf[at] = regs[REG_RIP];
    walk(regs[REG_RBP], buf + at + 1, DEPTH - 1);
}

__attribute__((constructor)) static void start(void) {
    const char *samples = getenv("HOSTPROF_SAMPLES"), *hz = getenv("HOSTPROF_HZ");
    cap = (samples ? strtoul(samples, 0, 10) : 200000) * DEPTH;
    buf = mmap(0, cap * sizeof *buf, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (buf == MAP_FAILED) return;
    struct sigaction action = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &action, 0);
    long usec = 1000000 / (hz ? strtol(hz, 0, 10) : 1000);
    struct itimerval timer = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &timer, 0);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    FILE *out = dump_open("hostprof-samples.txt");
    for (size_t at = 0; out && buf != MAP_FAILED && at + DEPTH <= used && at + DEPTH <= cap; at += DEPTH)
        dump_stack(out, 1, buf + at);
    if (out) fclose(out);
}
