// Corpus: raw threading outside the deterministic layers AND outside
// src/exec — det-thread is banned tree-wide except in the thread
// backend, with a hint pointing at src/exec.
#include <thread>

void sneak_parallelism() {
  std::thread worker([] {});
  worker.join();
}
