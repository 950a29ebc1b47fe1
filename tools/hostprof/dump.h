/* What both preload libraries share: the frame walk and the dump format —
 * "# maps", the process's /proc/self/maps, "# stacks", then one line per
 * stack: a count and its return addresses, innermost first, in hex. */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/uio.h>
#include <unistd.h>

#define DEPTH 16

/* Follows the frame-pointer chain from `fp`, writing up to `depth` return
 * addresses to `pc`. Frames are read with process_vm_readv, so a broken
 * chain (a frame built without a frame pointer) ends the walk instead of
 * faulting; it is async-signal-safe. */
static void walk(uintptr_t fp, uint64_t *pc, int depth) {
    uintptr_t frame[2];
    struct iovec local = {frame, sizeof frame}, remote = {0, sizeof frame};
    for (int d = 0; d < depth && fp && !(fp & 7); d++, fp = frame[0]) {
        remote.iov_base = (void *)fp;
        if (process_vm_readv(getpid(), &local, 1, &remote, 1, 0) != (ssize_t)sizeof frame) return;
        pc[d] = frame[1];
        if (frame[0] <= fp) return;
    }
}

static FILE *dump_open(const char *fallback) {
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : fallback, "w"), *maps = fopen("/proc/self/maps", "r");
    char line[512];
    if (!out) return out;
    fputs("# maps\n", out);
    while (maps && fgets(line, sizeof line, maps)) fputs(line, out);
    if (maps) fclose(maps);
    fputs("# stacks\n", out);
    return out;
}

static void dump_stack(FILE *out, uint64_t count, const uint64_t *pc) {
    fprintf(out, "%lu", (unsigned long)count);
    for (int d = 0; d < DEPTH && pc[d]; d++) fprintf(out, " %lx", (unsigned long)pc[d]);
    fputc('\n', out);
}
