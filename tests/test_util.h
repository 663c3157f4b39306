// Shared test helpers.
//
// gtest's ASSERT_* macros expand to `return`, which is ill-formed inside a
// coroutine; these variants record the failure and co_return instead.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/common/units.h"
#include "src/sim/task.h"

#define CO_ASSERT_TRUE(cond)                              \
  do {                                                    \
    if (!(cond)) {                                        \
      ADD_FAILURE() << "assertion failed: " #cond;        \
      co_return;                                          \
    }                                                     \
  } while (0)

#define CO_ASSERT_OK(expr)                                          \
  do {                                                              \
    const auto& _r = (expr);                                        \
    if (!_r.ok()) {                                                 \
      ADD_FAILURE() << #expr " failed: " << _r.status().ToString(); \
      co_return;                                                    \
    }                                                               \
  } while (0)

#define CO_ASSERT_STATUS_OK(expr)                          \
  do {                                                     \
    const ::cheetah::Status _s = (expr);                   \
    if (!_s.ok()) {                                        \
      ADD_FAILURE() << #expr " failed: " << _s.ToString(); \
      co_return;                                           \
    }                                                      \
  } while (0)

#define CO_ASSERT_EQ(a, b)                                               \
  do {                                                                   \
    if (!((a) == (b))) {                                                 \
      ADD_FAILURE() << "expected " #a " == " #b << " (" << (a) << " vs " \
                    << (b) << ")";                                       \
      co_return;                                                         \
    }                                                                    \
  } while (0)

namespace cheetah {

// Spawns body(cluster.client(i)) on client i's actor of a baseline cluster
// and drives the cluster's loop until the body returns or `budget` of virtual
// time passes. False on budget exhaustion.
template <typename Cluster, typename Fn>
bool RunOnClient(Cluster& cluster, int i, Fn body, Nanos budget = Seconds(30)) {
  auto done = std::make_shared<bool>(false);
  cluster.client_actor(i).Spawn(
      [](Fn body, auto* client, std::shared_ptr<bool> done) -> sim::Task<> {
        co_await body(*client);
        *done = true;
      }(std::move(body), &cluster.client(i), done));
  return cluster.loop().RunUntilDone([&] { return *done; }, budget);
}

}  // namespace cheetah

#endif  // TESTS_TEST_UTIL_H_
