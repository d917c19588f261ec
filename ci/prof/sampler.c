// A stack sampler for one thread, loaded with LD_PRELOAD.
//
// At load it arms a timer on the main thread's CPU clock that sends SIGPROF
// to the main thread alone, PROF_HZ times per CPU-second (default 997).
// The handler records RIP and the return addresses found by walking the
// RBP chain, so the program must be built with frame pointers. At exit the
// samples and a copy of /proc/self/maps go to PROF_OUT (default prof.out),
// for symbolize.py to read.
//
//   cc -O2 -shared -fPIC -o sampler.so ci/prof/sampler.c
//   PROF_OUT=read-fit.prof LD_PRELOAD=$PWD/sampler.so ./met-benchmark ...
//
// Output: "maps" lines, a "samples" line, then one sample a line as
// space-separated hex addresses, innermost first.
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

#define MAX_DEPTH 64
#define RING_WORDS (1u << 21)

// Each sample is [depth, addr0, addr1, ...]; the handler stops recording
// once the buffer is full.
static uint64_t *ring;
static volatile size_t used;
static uintptr_t stack_lo, stack_hi;
static timer_t timer;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    const greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    size_t at = used;
    if (at + MAX_DEPTH + 1 > RING_WORDS) {
        return;
    }
    size_t n = 0;
    ring[at + 1 + n++] = (uint64_t)regs[REG_RIP];
    uintptr_t fp = (uintptr_t)regs[REG_RBP];
    while (n < MAX_DEPTH && fp >= stack_lo && fp + 16 <= stack_hi && fp % 8 == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] == 0) {
            break;
        }
        ring[at + 1 + n++] = frame[1];
        if (frame[0] <= fp) {
            break; // the chain must grow toward the stack base
        }
        fp = frame[0];
    }
    ring[at] = n;
    used = at + 1 + n;
}

static void dump(void) {
    struct itimerspec off = {0};
    timer_settime(timer, 0, &off, NULL);
    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "prof.out", "w");
    if (!out) {
        perror("sampler: PROF_OUT");
        return;
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps)) {
        fprintf(out, "maps %s", line);
    }
    if (maps) {
        fclose(maps);
    }
    fprintf(out, "samples\n");
    for (size_t at = 0; at < used; at += 1 + ring[at]) {
        for (uint64_t i = 0; i < ring[at]; i++) {
            fprintf(out, i ? " %llx" : "%llx", (unsigned long long)ring[at + 1 + i]);
        }
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    ring = mmap(NULL, RING_WORDS * sizeof *ring, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (ring == MAP_FAILED) {
        return;
    }
    pthread_attr_t attr;
    void *base;
    size_t size;
    pthread_getattr_np(pthread_self(), &attr);
    pthread_attr_getstack(&attr, &base, &size);
    pthread_attr_destroy(&attr);
    stack_lo = (uintptr_t)base;
    stack_hi = stack_lo + size;

    struct sigaction sa = {0};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);

    struct sigevent ev = {0};
    ev.sigev_notify = SIGEV_THREAD_ID;
    ev.sigev_signo = SIGPROF;
    ev.sigev_notify_thread_id = (pid_t)syscall(SYS_gettid);
    if (timer_create(CLOCK_THREAD_CPUTIME_ID, &ev, &timer) != 0) {
        perror("sampler: timer_create");
        return;
    }
    const char *hz = getenv("PROF_HZ");
    long rate = hz ? atol(hz) : 0;
    long period_ns = 1000000000L / (rate > 0 ? rate : 997);
    struct itimerspec every = {{0, period_ns}, {0, period_ns}};
    timer_settime(timer, 0, &every, NULL);
    atexit(dump);
}
