// Counts calls to the global operator new in the benchmark binary (the
// replacement operators live in alloc_count.cc). Single-threaded like the
// simulator, so the counter is a plain integer.
#ifndef PERFBENCH_SRC_ALLOC_COUNT_H_
#define PERFBENCH_SRC_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ALLOC_COUNT_H_
