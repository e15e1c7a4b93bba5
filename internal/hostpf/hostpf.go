// Package hostpf issues cache-prefetch hints to the machine the
// simulator runs on. It has nothing to do with the simulated device:
// pmem.Pool.Prefetch is the paper's prefetch, on the virtual clock;
// this is the host's, on the wall clock, and it changes nothing a
// program can observe except how long a later access waits.
//
// The hint has to be a prefetch instruction. A load whose result is
// discarded would fetch the line too, but it must retire, and a LOCK-
// prefixed instruction behind it (the cache simulator's set mutex, an
// HTM stripe CAS) cannot execute until every older load has — the miss
// would be waited out in program order instead of overlapped.
package hostpf
