// Copyright (c) 2026 The Bolt Reproduction Authors.
// SPDX-License-Identifier: Apache-2.0
//
// The unit of work flowing through the serving layer (docs/SERVING.md):
// one client inference request carrying a leading-batch-axis input slice
// and the promise its results are delivered through.

#pragma once

#include <cstdint>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "ir/tensor.h"

namespace bolt {
namespace serve {

/// A single in-flight inference request.  `input` has shape
/// [rows, ...tail] where tail matches the registered model's input; the
/// dynamic batcher stacks several requests' rows into one engine
/// execution and fulfills `promise` with this request's output slices.
/// Move-only (the promise).
struct Request {
  std::string model;
  Tensor input;
  std::promise<Result<std::vector<Tensor>>> promise;
  /// Monotonic id assigned at submission (diagnostics / tracing).
  int64_t id = 0;
  /// Queue-arrival timestamp on the serving Clock, microseconds.  Set by
  /// FairScheduler::Push; the batcher's max-wait deadline and the
  /// serve.request.latency_us histogram are measured from here.
  double enqueue_us = 0.0;
  /// Absolute response deadline on the serving Clock (infinity = no
  /// SLO).  Set by Server::Submit from the model's / request's SLO; the
  /// scheduler dispatches a partial bucket early when the front
  /// request's deadline minus the predicted batch exec time leaves no
  /// slack (docs/SERVING.md).
  double deadline_us = std::numeric_limits<double>::infinity();
  /// Queue-side arrival sequence number, stamped on push.  Consumers
  /// latch the front request's identity with it, so a competing
  /// consumer stealing the front is detected and the straggler-wait
  /// deadline is re-latched instead of silently reused.
  uint64_t queue_seq = 0;

  int64_t rows() const {
    return input.shape().empty() ? 0 : input.shape()[0];
  }
};

}  // namespace serve
}  // namespace bolt
