/* LD_PRELOAD malloc call-site counter. Counts every malloc, calloc, realloc
 * and aligned allocation by the chain of return addresses above it (frame
 * pointers, DEPTH frames) and at exit writes the counts and /proc/self/maps
 * to $HOSTPROF_OUT (default hostprof-allocs.txt) for symbolise.py --by site.
 * Build the program under study with RUSTFLAGS='-C force-frame-pointers=yes'.
 *
 *   cc -O2 -fPIC -shared -fno-omit-frame-pointer -o allocsites.so allocsites.c
 *   LD_PRELOAD=$PWD/allocsites.so ./program
 */
#define _GNU_SOURCE
#include "dump.h"
#include <string.h>

extern void *__libc_malloc(size_t), *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t), *__libc_memalign(size_t, size_t);

#define SLOTS (1 << 16)
static struct { uint64_t count, pc[DEPTH]; } sites[SLOTS];
static int lock;
static __thread int busy; /* the walk and the dump allocate too */

static void count(void) {
    if (busy) return;
    busy = 1;
    uint64_t pc[DEPTH] = {0}, h = 0;
    walk((uintptr_t)__builtin_frame_address(0), pc, DEPTH);
    for (int d = 0; d < DEPTH; d++) h = (h ^ pc[d]) * 0x100000001b3ull;
    while (__atomic_exchange_n(&lock, 1, __ATOMIC_ACQUIRE)) {}
    for (uint64_t i = h % SLOTS, n = 0; n < SLOTS; i = (i + 1) % SLOTS, n++) {
        if (sites[i].count && memcmp(sites[i].pc, pc, sizeof pc)) continue;
        memcpy(sites[i].pc, pc, sizeof pc);
        sites[i].count++;
        break;
    }
    __atomic_store_n(&lock, 0, __ATOMIC_RELEASE);
    busy = 0;
}

void *malloc(size_t n) { count(); return __libc_malloc(n); }
void *calloc(size_t k, size_t n) { count(); return __libc_calloc(k, n); }
void *realloc(void *p, size_t n) { count(); return __libc_realloc(p, n); }
void *memalign(size_t a, size_t n) { count(); return __libc_memalign(a, n); }
void *aligned_alloc(size_t a, size_t n) { count(); return __libc_memalign(a, n); }
int posix_memalign(void **out, size_t a, size_t n) {
    count();
    return (*out = __libc_memalign(a, n)) ? 0 : 12 /* ENOMEM */;
}

__attribute__((destructor)) static void finish(void) {
    busy = 1;
    FILE *out = dump_open("hostprof-allocs.txt");
    for (int i = 0; out && i < SLOTS; i++)
        if (sites[i].count) dump_stack(out, sites[i].count, sites[i].pc);
    if (out) fclose(out);
}
