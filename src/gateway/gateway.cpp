#include "gateway/gateway.h"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "android/android_platform.h"
#include "core/meter.h"
#include "core/proxy.h"
#include "core/registry.h"
#include "gateway/mpsc_queue.h"
#include "iphone/iphone_platform.h"
#include "s60/s60_platform.h"
#include "sim/geo_track.h"
#include "support/logging.h"
#include "support/seed.h"
#include "support/trace.h"

namespace mobivine::gateway {

namespace {

/// Errors worth re-executing: the underlying condition (lost packet,
/// radio glitch, failed GPS fix) is sampled fresh on every attempt.
[[nodiscard]] bool IsTransient(core::ErrorCode code) {
  switch (code) {
    case core::ErrorCode::kTimeout:
    case core::ErrorCode::kRadioFailure:
    case core::ErrorCode::kNetwork:
    case core::ErrorCode::kUnreachable:
    case core::ErrorCode::kLocationUnavailable:
      return true;
    default:
      return false;
  }
}

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

constexpr int kOpCount = static_cast<int>(core::Op::kCount_);

/// A request as it sits in a shard queue: envelope + admission stamps.
struct QueuedRequest {
  Request request;
  /// Non-null for an M-Script execution: it rides the same bounded queue
  /// and admission/deadline stamps, but Serve branches to the script
  /// plane at dequeue (and never retries it).
  std::unique_ptr<ScriptRequest> script;
  /// Resolved TenantTable slot (stamped at submit so the worker and the
  /// occupancy release never re-hash the tenant id).
  std::uint32_t tenant_slot = 0;
  Clock::time_point submitted_at{};
  Clock::time_point deadline = kNoDeadline;
};

void InvokeCompletionFn(const std::function<void(const Response&)>& fn,
                        const Response& response) {
  if (!fn) return;
  try {
    fn(response);
  } catch (const std::exception& e) {
    // A throwing completion callback must not take down the worker.
    MOBIVINE_LOG_ERROR << "gateway: completion callback threw: " << e.what();
  }
}

void InvokeCompletion(Request& request, const Response& response) {
  InvokeCompletionFn(request.on_complete, response);
}

void InvokeScriptCompletionFn(
    const std::function<void(const ScriptResponse&)>& fn,
    const ScriptResponse& response) {
  if (!fn) return;
  try {
    fn(response);
  } catch (const std::exception& e) {
    MOBIVINE_LOG_ERROR << "gateway: script completion callback threw: "
                       << e.what();
  }
}

}  // namespace

const char* ToString(Platform platform) {
  switch (platform) {
    case Platform::kAndroid:
      return "android";
    case Platform::kS60:
      return "s60";
    case Platform::kIphone:
      return "iphone";
  }
  return "?";
}

const char* ToString(Op op) {
  switch (op) {
    case Op::kGetLocation:
      return "getLocation";
    case Op::kSendSms:
      return "sendSms";
    case Op::kHttpGet:
      return "httpGet";
    case Op::kHttpPost:
      return "httpPost";
    case Op::kSegmentCount:
      return "segmentCount";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Shard: one worker thread owning a complete single-threaded MobiVine world
// ---------------------------------------------------------------------------

class Gateway::Shard {
 public:
  /// Why an admission attempt did not queue the request. Quota and
  /// queue-full both surface kOverloaded to the caller; they are kept
  /// apart so stats and traces can tell "the shard is full" from "this
  /// tenant exceeded its weighted share".
  enum class Admission { kAdmitted, kQueueFull, kQuota };

  Shard(const GatewayConfig& config, const TenantTable& tenants,
        std::uint32_t index)
      : index_(index),
        queue_(config.queue_capacity),
        shed_watermark_(std::min(config.shed_watermark == 0
                                     ? config.queue_capacity
                                     : config.shed_watermark,
                                 config.queue_capacity)),
        default_retry_(config.default_retry),
        tenants_(tenants),
        feed_(config.push_replay_capacity),
        sms_bridge_(*this),
        registry_(config.store) {
    tenant_caps_.reserve(tenants_.size());
    for (std::size_t slot = 0; slot < tenants_.size(); ++slot) {
      tenant_caps_.push_back(tenants_.QueueCap(slot, shed_watermark_));
    }
    tenant_occupancy_ =
        std::make_unique<std::atomic<std::uint32_t>[]>(tenants_.size());
    device::DeviceConfig device_config = config.device_template;
    device_config.seed += index;  // decorrelate shards, stay deterministic
    device_ = std::make_unique<device::MobileDevice>(device_config);
    device_->gps().set_track(
        sim::GeoTrack::Stationary(28.5245, 77.1855, 210.0));
    device_->modem().RegisterSubscriber(kGatewaySmsPeer);
    device_->network().RegisterHost(
        kGatewayHttpHost, [](const device::HttpRequest& http_request) {
          return device::HttpResponse::Ok(http_request.body.empty()
                                              ? "pong"
                                              : http_request.body);
        });

    android_ = std::make_unique<android::AndroidPlatform>(*device_);
    android_->grantPermission(android::permissions::kFineLocation);
    android_->grantPermission(android::permissions::kSendSms);
    android_->grantPermission(android::permissions::kInternet);
    s60_ = std::make_unique<s60::S60Platform>(*device_);
    s60_->grantPermission(s60::permissions::kLocation);
    s60_->grantPermission(s60::permissions::kSmsSend);
    s60_->grantPermission(s60::permissions::kHttp);
    iphone_ = std::make_unique<iphone::IPhonePlatform>(*device_);
    if (config.failover.enabled()) {
      failover_ =
          std::make_unique<FailoverEngine>(config.failover, stats_, index);
    }

    location_[PlatformIndex(Platform::kAndroid)] =
        registry_.CreateLocationProxy(*android_);
    location_[PlatformIndex(Platform::kAndroid)]->setProperty(
        "context", &android_->application_context());
    location_[PlatformIndex(Platform::kS60)] =
        registry_.CreateLocationProxy(*s60_);
    location_[PlatformIndex(Platform::kIphone)] =
        registry_.CreateLocationProxy(*iphone_);

    sms_[PlatformIndex(Platform::kAndroid)] = registry_.CreateSmsProxy(*android_);
    sms_[PlatformIndex(Platform::kAndroid)]->setProperty(
        "context", &android_->application_context());
    sms_[PlatformIndex(Platform::kS60)] = registry_.CreateSmsProxy(*s60_);
    sms_[PlatformIndex(Platform::kIphone)] = registry_.CreateSmsProxy(*iphone_);

    http_[PlatformIndex(Platform::kAndroid)] =
        registry_.CreateHttpProxy(*android_);
    http_[PlatformIndex(Platform::kS60)] = registry_.CreateHttpProxy(*s60_);
    http_[PlatformIndex(Platform::kIphone)] =
        registry_.CreateHttpProxy(*iphone_);

    if (failover_ != nullptr) {
      // The engine is every proxy's fault gate, so injected faults
      // surface through the same binding-dispatch path as real ones.
      static constexpr Platform kAll[] = {Platform::kAndroid, Platform::kS60,
                                          Platform::kIphone};
      for (Platform platform : kAll) {
        const char* tag = ToString(platform);
        const std::size_t i = PlatformIndex(platform);
        location_[i]->installFaultGate(failover_.get(), tag);
        sms_[i]->installFaultGate(failover_.get(), tag);
        http_[i]->installFaultGate(failover_.get(), tag);
      }
    }

    // M-Script: the engine's host ops close over this shard's proxies, so
    // a script's invocations hit the exact metered, fault-gated,
    // descriptor-validated surface kRequest traffic does. All callbacks
    // run on the worker thread only.
    ScriptHostOps host_ops;
    host_ops.invoke = [this](Platform platform, Op op,
                             const std::string& target,
                             const std::string& payload,
                             const std::string& content_type) {
      Request request;
      request.op = op;
      request.target = target;
      request.payload = payload;
      request.content_type = content_type;
      return ExecuteOnce(request, platform);
    };
    host_ops.set_property = [this](Platform platform, Op op,
                                   const std::string& name,
                                   const std::string& value) {
      core::MProxy& proxy = ProxyFor(platform, op);
      // Snapshot each proxy once per script, on first touch; ServeScript
      // restores every touched proxy after the run, so script property
      // writes never leak into later traffic on this shard.
      const bool seen = std::any_of(
          script_touched_.begin(), script_touched_.end(),
          [&proxy](const auto& entry) { return entry.first == &proxy; });
      if (!seen) {
        script_touched_.emplace_back(&proxy, proxy.snapshotProperties());
      }
      proxy.setProperty(name, core::PropertyValue(value));
    };
    host_ops.get_property = [this](Platform platform, Op op,
                                   const std::string& name) -> std::string {
      core::MProxy& proxy = ProxyFor(platform, op);
      if (auto s = proxy.getProperty<std::string>(name)) return *s;
      if (auto i = proxy.getProperty<long long>(name)) {
        return std::to_string(*i);
      }
      if (auto d = proxy.getProperty<double>(name)) return std::to_string(*d);
      if (auto b = proxy.getProperty<bool>(name)) return *b ? "true" : "false";
      return std::string();
    };
    const std::uint64_t per_step = config.script.virtual_us_per_step;
    host_ops.charge_steps = [this, per_step](std::uint64_t steps) {
      device_->scheduler().AdvanceBy(sim::SimTime::Micros(
          static_cast<std::int64_t>(steps * per_step)));
    };
    host_ops.virtual_now_us = [this] { return VirtualNowUs(); };
    script_engine_ =
        std::make_unique<ScriptEngine>(std::move(host_ops), config.script);

    // Everything above happened on the constructing thread; the thread
    // start below is the handoff point (happens-before), after which the
    // device, platforms and proxies are touched only by the worker.
    worker_ = std::thread([this] { WorkerLoop(); });
  }

  ~Shard() {
    Close();
    Join();
  }

  /// Admission control on the submitting thread: the global shed
  /// watermark first, then the tenant's weighted slot cap. On anything
  /// but kAdmitted the request is left intact in `queued` (TryPush only
  /// moves on success) so the caller can shed it. The occupancy counter
  /// is reserved *before* the push and released on failure, so
  /// concurrent submitters can momentarily observe cap-full and shed,
  /// but a tenant can never exceed its cap.
  Admission TrySubmit(QueuedRequest& queued) {
    const std::size_t depth = queue_.size();
    stats_.ObserveDepth(depth);
    if (depth >= shed_watermark_) return Admission::kQueueFull;
    const std::size_t slot = queued.tenant_slot;
    const std::uint32_t prev =
        tenant_occupancy_[slot].fetch_add(1, std::memory_order_relaxed);
    if (prev >= tenant_caps_[slot]) {
      tenant_occupancy_[slot].fetch_sub(1, std::memory_order_relaxed);
      return Admission::kQuota;
    }
    if (!queue_.TryPush(std::move(queued))) {
      tenant_occupancy_[slot].fetch_sub(1, std::memory_order_relaxed);
      return Admission::kQueueFull;
    }
    stats_.OnAccepted();
    tenants_.stats(slot).OnAccepted();
    return Admission::kAdmitted;
  }

  /// The admission checks alone, for the borrowed-request path: lets the
  /// caller decide to shed before paying for string materialization.
  /// Advisory — the queue can still fill (or the tenant's slots free up)
  /// between this and TrySubmit, so the push itself remains the
  /// authoritative admission.
  [[nodiscard]] Admission ProbeAdmission(std::size_t slot) const {
    if (queue_.size() >= shed_watermark_) return Admission::kQueueFull;
    if (tenant_occupancy_[slot].load(std::memory_order_relaxed) >=
        tenant_caps_[slot]) {
      return Admission::kQuota;
    }
    return Admission::kAdmitted;
  }

  void Close() { queue_.Close(); }

  void Join() {
    if (worker_.joinable()) worker_.join();
  }

  [[nodiscard]] ShardSnapshot Snapshot() const {
    return stats_.Snapshot(queue_.size());
  }

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  ShardStats& stats() { return stats_; }

  PushFeed& feed() { return feed_; }

  /// Sum this shard's nine proxy meters into the caller's accumulators
  /// (M-Scope metrics source). Meter counters are relaxed atomics, so
  /// reading them while the worker serves is safe.
  void AddMeterCounts(std::array<std::uint64_t, kOpCount>& counts,
                      std::uint64_t& charged_us) const {
    const auto add = [&](const core::MProxy& proxy) {
      const core::OverheadMeter& meter = proxy.meter();
      for (int op = 0; op < kOpCount; ++op) {
        counts[static_cast<std::size_t>(op)] +=
            meter.count(static_cast<core::Op>(op));
      }
      charged_us += static_cast<std::uint64_t>(meter.charged().micros());
    };
    for (const auto& proxy : location_) add(*proxy);
    for (const auto& proxy : sms_) add(*proxy);
    for (const auto& proxy : http_) add(*proxy);
  }

 private:
  /// Routes the uniform SmsListener callback surface into the shard's
  /// push feed. One long-lived instance per shard, handed to every
  /// sendTextMessage dispatch — the bindings retain it for the delivery
  /// broadcasts that fire later (during RunAll or a later serve), so it
  /// must outlive every in-flight message, which shard ownership gives.
  class SmsDeliveryBridge : public core::SmsListener {
   public:
    explicit SmsDeliveryBridge(Shard& shard) : shard_(shard) {}
    void smsStatusChanged(long long message_id,
                          core::SmsDeliveryStatus status) override {
      shard_.PublishSmsStatus(message_id, status);
    }

   private:
    Shard& shard_;
  };

  /// Worker-thread only (bindings fire callbacks on the serving thread).
  /// The kSubmitted callback fires inside sendTextMessage, while the
  /// originating request is still the one being served — that is when a
  /// message id gets bound to its client; later delivery broadcasts for
  /// the same id (which fire while a DIFFERENT request is current) look
  /// the owner up instead of trusting serving_client_id_.
  void PublishSmsStatus(long long message_id,
                        core::SmsDeliveryStatus status) {
    std::uint64_t client = serving_client_id_;
    const auto it = sms_owners_.find(message_id);
    if (it != sms_owners_.end()) {
      client = it->second;
    } else {
      sms_owners_.emplace(message_id, client);
    }
    // Delivered/failed are terminal — drop the binding so the map stays
    // bounded by in-flight messages.
    if (status != core::SmsDeliveryStatus::kSubmitted) {
      sms_owners_.erase(message_id);
    }
    feed_.Publish(PushTopic::kSmsDelivery, client,
                  std::to_string(message_id) + ":" + core::ToString(status));
  }

  static constexpr std::size_t PlatformIndex(Platform platform) {
    return static_cast<std::size_t>(platform);
  }

  /// M-Scope virtual clock source for this shard's worker thread: spans
  /// recorded on it carry the shard scheduler's virtual timestamps.
  static std::uint64_t VirtualNow(void* ctx) {
    auto* shard = static_cast<Shard*>(ctx);
    return static_cast<std::uint64_t>(shard->device_->scheduler().now().micros());
  }

  /// The shard's virtual clock, as the µs the breakers and hedge
  /// profiles run on.
  [[nodiscard]] std::uint64_t VirtualNowUs() const {
    return static_cast<std::uint64_t>(device_->scheduler().now().micros());
  }

  void WorkerLoop() {
    support::trace::SetCurrentThreadName("shard-" + std::to_string(index_));
    support::trace::SetThreadVirtualClock(&Shard::VirtualNow, this);
    QueuedRequest queued;
    while (queue_.Pop(queued)) {
      Serve(queued);
      // The tenant's slot reservation ends at *completion*, not dequeue:
      // the cap bounds outstanding (queued + in-service) work per
      // tenant. Releasing at dequeue would let a flooding tenant with
      // cap 1 keep one request queued while another is being served —
      // effectively two pipeline slots — and interleave itself between
      // every other tenant's requests. FIFO service then converts the
      // outstanding-work bound into weight-proportional served
      // throughput under backlog.
      tenant_occupancy_[queued.tenant_slot].fetch_sub(
          1, std::memory_order_relaxed);
    }
    support::trace::SetThreadVirtualClock(nullptr, nullptr);
  }

  void Serve(QueuedRequest& queued) {
    if (queued.script != nullptr) {
      ServeScript(queued);
      return;
    }
    support::trace::Span serve_span("gateway.serve");
    serve_span.Tag("shard", index_);
    serving_client_id_ = queued.request.client_id;
    Response response;
    response.shard = index_;
    const Clock::time_point dequeued_at = Clock::now();
    // Queue wait starts on the submitting thread and ends here; record it
    // as a complete event with caller-supplied bounds.
    support::trace::CompleteEvent("gateway.queue_wait", queued.submitted_at,
                                  dequeued_at, "shard", index_);
    if (dequeued_at >= queued.deadline) {
      support::trace::Instant("gateway.deadline_expired", "shard", index_);
      stats_.OnTimedOut();
      response.error = core::ErrorCode::kDeadlineExceeded;
      response.message = "deadline expired in queue";
      Finish(queued, response);
      return;
    }

    const RetryPolicy& policy = queued.request.retry.max_attempts > 0
                                    ? queued.request.retry
                                    : default_retry_;
    // max_attempts bounds retry ROUNDS. Without M-Failover a round is
    // exactly one dispatch, so this is the pre-failover contract; with it
    // a round is one failover sweep across the shard's platforms, and
    // Response::attempts reports the total dispatches issued.
    const int max_rounds = std::max(policy.max_attempts, 1);
    std::chrono::microseconds backoff =
        std::max(policy.initial_backoff, std::chrono::microseconds(1));
    int round = 0;
    while (true) {
      // The backoff-fits check below predicts the deadline will survive
      // the sleep, but sleep_for may overshoot: re-check so an expired
      // request never starts another attempt.
      if (response.attempts > 0 && Clock::now() >= queued.deadline) {
        support::trace::Instant("gateway.deadline_expired", "shard", index_);
        stats_.OnTimedOut();
        response.error = core::ErrorCode::kDeadlineExceeded;
        response.message = "deadline expired between retry attempts";
        break;
      }
      ++round;
      const SweepOutcome sweep = RunSweep(queued, response);
      if (sweep.final) break;  // success, or a non-retryable failure booked
      // The whole sweep failed transiently: spend a retry round on it.
      if (round >= max_rounds) {
        stats_.OnFailed();
        if (sweep.all_backends) {
          // Failover actually swept the shard's platforms (or breakers
          // sidelined them) and none could serve: the caller's platform
          // choice is not the story, the shard-wide outage is.
          response.error = core::ErrorCode::kAllBackendsFailed;
          response.message =
              std::string("all backends failed; last error: ") +
              sweep.last_message;
        } else {
          response.error = sweep.last_code;
          response.message = sweep.last_message;
        }
        break;
      }
      if (Clock::now() + backoff >= queued.deadline) {
        // Transient and rounds remain, but the deadline cannot absorb
        // the next backoff: the request ran out of time, not attempts.
        // That is a deadline outcome, not a failure of the last error's
        // kind — misclassifying it as the transient error both lies to
        // the caller and double-books stats (failed vs timed_out).
        stats_.OnTimedOut();
        response.error = core::ErrorCode::kDeadlineExceeded;
        response.message =
            std::string("deadline exhausted during retry; last error: ") +
            sweep.last_message;
        break;
      }
      stats_.OnRetry();
      tenants_.stats(queued.tenant_slot).OnRetry();
      {
        support::trace::Span backoff_span("gateway.backoff");
        backoff_span.Tag("backoff_us", backoff.count());
        backoff_span.Tag("shard", index_);
        std::this_thread::sleep_for(backoff);
        // Mirror the wait onto the shard's virtual timeline so
        // device-side timers (delivery reports, polling) progress
        // during the backoff — and open circuit breakers cool down.
        device_->scheduler().AdvanceBy(
            sim::SimTime::Micros(backoff.count()));
      }
      const auto grown = static_cast<std::int64_t>(
          static_cast<double>(backoff.count()) * policy.multiplier);
      backoff = std::min(std::chrono::microseconds(std::max<std::int64_t>(
                             grown, backoff.count() + 1)),
                         policy.max_backoff);
    }
    // Drain device-side follow-ups (delivery intents, polling ticks)
    // before the next request so per-request virtual work stays bounded.
    device_->RunAll();
    Finish(queued, response);
  }

  void Finish(QueuedRequest& queued, Response& response) {
    response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - queued.submitted_at);
    stats_.RecordLatency(
        static_cast<std::uint64_t>(response.latency.count()));
    // Per-tenant outcome, classified once from the final response so it
    // mirrors the shard counters booked along the serve path exactly:
    // ok / kDeadlineExceeded / everything-else == ok / timed_out / failed.
    TenantStats& tenant = tenants_.stats(queued.tenant_slot);
    if (response.ok) {
      tenant.OnOk();
    } else if (response.error == core::ErrorCode::kDeadlineExceeded) {
      tenant.OnTimedOut();
    } else {
      tenant.OnFailed();
    }
    tenant.RecordLatency(
        static_cast<std::uint64_t>(response.latency.count()));
    support::trace::Span complete_span("gateway.complete");
    complete_span.Tag("shard", index_);
    complete_span.Tag("attempts", response.attempts);
    InvokeCompletion(queued.request, response);
  }

  /// M-Script service: deadline check at dequeue, one sandboxed
  /// execution, one completion. No retry rounds — a composite may have
  /// performed side effects (an SMS send) before failing, and retry is
  /// expressible in-language since host errors are catchable.
  void ServeScript(QueuedRequest& queued) {
    ScriptRequest& script = *queued.script;
    support::trace::Span run_span("script.run");
    run_span.Tag("shard", index_);
    serving_client_id_ = script.client_id;
    ScriptResponse response;
    response.shard = index_;
    const Clock::time_point dequeued_at = Clock::now();
    support::trace::CompleteEvent("gateway.queue_wait", queued.submitted_at,
                                  dequeued_at, "shard", index_);
    if (dequeued_at >= queued.deadline) {
      support::trace::Instant("gateway.deadline_expired", "shard", index_);
      stats_.OnTimedOut();
      response.error = core::ErrorCode::kDeadlineExceeded;
      response.message = "deadline expired in queue";
      FinishScript(queued, response);
      return;
    }
    stats_.OnScript();
    response = script_engine_->Execute(script);
    response.shard = index_;
    if (response.cache_hit) {
      stats_.OnScriptCacheHit();
    } else {
      stats_.OnScriptCacheMiss();
    }
    run_span.Tag("steps", static_cast<std::int64_t>(response.steps));
    run_span.Tag("invocations",
                 static_cast<std::int64_t>(response.invocations));
    // Undo the script's property writes (reverse order, mirroring nested
    // ScopedPropertyRestore) whatever the outcome — including throws the
    // script caught and recovered from.
    for (auto it = script_touched_.rbegin(); it != script_touched_.rend();
         ++it) {
      it->first->restoreProperties(std::move(it->second));
    }
    script_touched_.clear();
    stats_.OnScriptSteps(response.steps);
    stats_.OnScriptInvocations(response.invocations);
    if (response.ok) {
      stats_.OnOk();
    } else if (response.error == core::ErrorCode::kDeadlineExceeded) {
      stats_.OnTimedOut();
    } else {
      stats_.OnFailed();
    }
    if (response.script_error) stats_.OnScriptError();
    if (response.budget_kill) stats_.OnScriptBudgetKill();
    // Drain device-side follow-ups (delivery intents, polling ticks)
    // scheduled by the script's invocations, as Serve does.
    device_->RunAll();
    FinishScript(queued, response);
  }

  void FinishScript(QueuedRequest& queued, ScriptResponse& response) {
    response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - queued.submitted_at);
    stats_.RecordLatency(
        static_cast<std::uint64_t>(response.latency.count()));
    // Same per-tenant classification as Finish(): scripts bill their
    // tenant through the identical outcome bands.
    TenantStats& tenant = tenants_.stats(queued.tenant_slot);
    if (response.ok) {
      tenant.OnOk();
    } else if (response.error == core::ErrorCode::kDeadlineExceeded) {
      tenant.OnTimedOut();
    } else {
      tenant.OnFailed();
    }
    tenant.RecordLatency(
        static_cast<std::uint64_t>(response.latency.count()));
    support::trace::Span complete_span("gateway.complete");
    complete_span.Tag("shard", index_);
    InvokeScriptCompletionFn(queued.script->on_complete, response);
  }

  /// What one failover sweep (one retry round) left behind when it did
  /// not fully book the response.
  struct SweepOutcome {
    bool final = false;  ///< response booked (success or terminal failure)
    /// The sweep genuinely exhausted the shard's platforms (>= 2
    /// platforms dispatched-and-failed, or breakers sidelined some):
    /// label exhaustion kAllBackendsFailed instead of the last error.
    bool all_backends = false;
    core::ErrorCode last_code = core::ErrorCode::kUnknown;
    std::string last_message;
  };

  /// One retry round. Without M-Failover: exactly one dispatch on the
  /// request's platform. With it: a sweep over the shard's platforms —
  /// primary first, then the rest in enum order — skipping open
  /// breakers, re-dispatching transient failures (failover) and hanging
  /// dispatches (hedge), first success wins.
  SweepOutcome RunSweep(QueuedRequest& queued, Response& response) {
    SweepOutcome out;
    const Platform primary = queued.request.platform;
    const bool multi =
        failover_ != nullptr &&
        (failover_->config().failover || failover_->config().hedging);
    Platform candidates[3];
    std::size_t candidate_count = 0;
    candidates[candidate_count++] = primary;
    if (multi) {
      for (std::size_t i = 0; i < 3; ++i) {
        const auto platform = static_cast<Platform>(i);
        if (platform != primary) candidates[candidate_count++] = platform;
      }
    }

    std::size_t breaker_skipped = 0;
    std::size_t dispatched = 0;
    bool next_is_hedge = false;
    for (std::size_t i = 0; i < candidate_count; ++i) {
      const Platform platform = candidates[i];
      const std::size_t platform_index = PlatformIndex(platform);
      if (failover_ != nullptr &&
          !failover_->BreakerAllows(platform_index, VirtualNowUs())) {
        ++breaker_skipped;
        support::trace::Instant("gateway.breaker_skip", "platform",
                                static_cast<std::int64_t>(platform_index));
        continue;
      }
      const bool is_redispatch = dispatched > 0;
      const bool is_hedge = is_redispatch && next_is_hedge;
      std::optional<support::trace::Span> redispatch_span;
      if (is_redispatch) {
        if (is_hedge) {
          stats_.OnHedgeFired();
        } else {
          stats_.OnFailover();
        }
        redispatch_span.emplace(is_hedge ? "gateway.hedge"
                                         : "gateway.failover");
        redispatch_span->Tag("shard", index_);
        redispatch_span->Tag("to_platform",
                             static_cast<std::int64_t>(platform_index));
      }
      if (failover_ != nullptr) {
        // Patience budget for a hanging dispatch: the hedge threshold
        // when another candidate could take over, otherwise the hang cap
        // bounded by whatever wall-clock deadline remains.
        std::uint64_t budget;
        if (failover_->config().hedging && i + 1 < candidate_count) {
          budget = failover_->HedgeThresholdUs(platform_index);
        } else {
          budget = failover_->config().hang_cap_us;
          if (queued.deadline != kNoDeadline) {
            const auto remaining =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    queued.deadline - Clock::now())
                    .count();
            budget = static_cast<std::uint64_t>(std::clamp<std::int64_t>(
                remaining, 1, static_cast<std::int64_t>(budget)));
          }
        }
        failover_->set_hang_budget_us(budget);
      }
      ++dispatched;
      ++response.attempts;
      const std::uint64_t virt_start = VirtualNowUs();
      try {
        support::trace::Span attempt_span("gateway.attempt");
        attempt_span.Tag("n", response.attempts);
        attempt_span.Tag("shard", index_);
        response.payload = ExecuteOnce(queued.request, platform);
        response.ok = true;
        response.served_platform = platform;
        stats_.OnOk();
        if (is_hedge) stats_.OnHedgeWon();
        if (failover_ != nullptr) {
          failover_->OnDispatchSuccess(platform_index,
                                       VirtualNowUs() - virt_start);
        }
        out.final = true;
        return out;
      } catch (const core::ProxyError& error) {
        if (is_redispatch && error.native_type() == "gateway.setProperty") {
          // The request's properties don't port to this platform (e.g. an
          // s60-only property on android) — that makes the candidate
          // ineligible for THIS request, not unhealthy: skip it without
          // charging its breaker. On the primary the same throw is the
          // caller's own error and stays terminal (below).
          continue;
        }
        const bool hung = error.native_type() == "fault.hang";
        const bool transient = IsTransient(error.code());
        if (failover_ != nullptr && transient) {
          failover_->OnDispatchFailure(platform_index, VirtualNowUs());
        }
        if (!transient) {
          stats_.OnFailed();
          response.error = error.code();
          response.message = error.what();
          out.final = true;
          return out;
        }
        out.last_code = error.code();
        out.last_message = error.what();
        // A hang can be hedged even when plain failover is off; any
        // other transient failure moves on only under failover.
        next_is_hedge = hung && multi && failover_->config().hedging;
        const bool sweep_on =
            multi && (failover_->config().failover || next_is_hedge);
        if (!sweep_on) break;  // retry rounds take it from here
      } catch (const std::exception& e) {
        stats_.OnFailed();
        response.error = core::ErrorCode::kUnknown;
        response.message = e.what();
        out.final = true;
        return out;
      }
    }
    if (dispatched == 0) {
      // Every candidate sat behind an open breaker. Retry rounds still
      // apply: the backoff advances the virtual clock, which is exactly
      // what lets a breaker reach half-open.
      out.last_code = core::ErrorCode::kAllBackendsFailed;
      out.last_message = "all circuit breakers open";
      out.all_backends = true;
      return out;
    }
    out.all_backends = multi && (dispatched >= 2 || breaker_skipped > 0);
    return out;
  }

  /// One dispatch on the real proxy surface of `platform`. Throws
  /// ProxyError on failure.
  std::string ExecuteOnce(const Request& request, Platform platform) {
    core::MProxy& proxy = ProxyFor(platform, request.op);
    // Request-scoped properties are applied to a shard-shared, long-lived
    // proxy; without save/restore they would leak into every later
    // request served on it (including on throw, e.g. a property-driven
    // LocationException). Snapshot only when there is something to apply.
    std::optional<core::ScopedPropertyRestore> restore;
    if (!request.properties.empty()) restore.emplace(proxy);
    try {
      for (const auto& [name, value] : request.properties) {
        proxy.setProperty(name, value);
      }
    } catch (const core::ProxyError& error) {
      // Tag property-application failures so the failover sweep can tell
      // "this candidate can't take these properties" from a dispatch
      // failure of the op itself.
      throw core::ProxyError(error.code(), error.what(), error.platform(),
                             "gateway.setProperty");
    }
    switch (request.op) {
      case Op::kGetLocation: {
        const core::Location location =
            static_cast<core::LocationProxy&>(proxy).getLocation();
        return std::to_string(location.latitude) + "," +
               std::to_string(location.longitude);
      }
      case Op::kSendSms:
        // The bridge listener turns submit/delivery broadcasts into
        // kSmsDelivery push events on this shard's feed.
        return std::to_string(
            static_cast<core::SmsProxy&>(proxy).sendTextMessage(
                request.target, request.payload, &sms_bridge_));
      case Op::kHttpGet:
        return static_cast<core::HttpProxy&>(proxy).get(request.target).body;
      case Op::kHttpPost:
        return static_cast<core::HttpProxy&>(proxy)
            .post(request.target, request.payload,
                  request.content_type.empty() ? "text/plain"
                                               : request.content_type)
            .body;
      case Op::kSegmentCount:
        return std::to_string(
            static_cast<core::SmsProxy&>(proxy).segmentCount(
                request.payload));
    }
    throw core::ProxyError(core::ErrorCode::kUnsupported, "unknown op");
  }

  core::MProxy& ProxyFor(Platform platform, Op op) {
    const std::size_t index = PlatformIndex(platform);
    switch (op) {
      case Op::kGetLocation:
        return *location_[index];
      case Op::kSendSms:
      case Op::kSegmentCount:
        return *sms_[index];
      case Op::kHttpGet:
      case Op::kHttpPost:
        return *http_[index];
    }
    throw core::ProxyError(core::ErrorCode::kUnsupported, "unknown op");
  }

  const std::uint32_t index_;
  BoundedMpscQueue<QueuedRequest> queue_;
  const std::size_t shed_watermark_;
  const RetryPolicy default_retry_;
  /// The gateway-owned tenant directory (admission weights + the shared
  /// per-tenant stats blocks; outlives every shard).
  const TenantTable& tenants_;
  /// Per-tenant queue-slot caps on THIS shard, derived from the weights
  /// and this shard's watermark at construction.
  std::vector<std::size_t> tenant_caps_;
  /// Queue slots each tenant currently occupies here: ++ at admission,
  /// -- at dequeue. Writers are submitting threads and the worker.
  std::unique_ptr<std::atomic<std::uint32_t>[]> tenant_occupancy_;
  ShardStats stats_;
  PushFeed feed_;
  SmsDeliveryBridge sms_bridge_;
  /// Client id of the request currently being served; worker-only.
  std::uint64_t serving_client_id_ = 0;
  /// In-flight message id -> originating client; worker-only, entries
  /// dropped on terminal delivery status.
  std::unordered_map<long long, std::uint64_t> sms_owners_;
  /// Null unless GatewayConfig::failover.enabled(); worker-thread-only
  /// after construction (its ShardStats writes are the shared part).
  std::unique_ptr<FailoverEngine> failover_;
  /// M-Script engine; worker-thread-only after construction.
  std::unique_ptr<ScriptEngine> script_engine_;
  /// Proxies the current script touched via setProperty, with their
  /// pre-script bags; worker-only, emptied after every script.
  std::vector<std::pair<core::MProxy*, core::PropertyBag>> script_touched_;

  // The shard-private single-threaded MobiVine world.
  std::unique_ptr<device::MobileDevice> device_;
  std::unique_ptr<android::AndroidPlatform> android_;
  std::unique_ptr<s60::S60Platform> s60_;
  std::unique_ptr<iphone::IPhonePlatform> iphone_;
  core::ProxyRegistry registry_;
  std::unique_ptr<core::LocationProxy> location_[3];
  std::unique_ptr<core::SmsProxy> sms_[3];
  std::unique_ptr<core::HttpProxy> http_[3];

  std::thread worker_;  // last member: starts after the world is built
};

// ---------------------------------------------------------------------------
// Gateway
// ---------------------------------------------------------------------------

Gateway::Gateway(GatewayConfig config)
    : config_(std::move(config)), tenant_table_(config_.tenants) {
  const int shard_count = std::max(config_.shards, 1);
  shards_.reserve(static_cast<std::size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_, tenant_table_,
                                              static_cast<std::uint32_t>(i)));
  }
}

Gateway::~Gateway() { Stop(); }

std::uint32_t Gateway::ShardFor(std::uint64_t client_id) const {
  // The SplitMix64 finalizer, so nearby client ids still spread across
  // shards.
  return static_cast<std::uint32_t>(support::Mix64(client_id) %
                                    shards_.size());
}

PushFeed& Gateway::FeedForShard(std::uint32_t shard) {
  return shards_[shard]->feed();
}

PushFeed& Gateway::FeedFor(std::uint64_t client_id) {
  return FeedForShard(ShardFor(client_id));
}

std::uint64_t Gateway::PublishEvent(std::uint64_t client_id, PushTopic topic,
                                    std::string body) {
  return FeedFor(client_id).Publish(topic, client_id, std::move(body));
}

int Gateway::shard_count() const { return static_cast<int>(shards_.size()); }

std::size_t Gateway::queue_depth() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->queue_depth();
  return total;
}

bool Gateway::Submit(Request request) {
  support::trace::Span span("gateway.submit");
  const std::uint32_t index = ShardFor(request.client_id);
  span.Tag("shard", index);
  Shard& shard = *shards_[index];
  const std::size_t slot = tenant_table_.SlotFor(request.tenant);
  tenant_table_.stats(slot).OnSubmitted();

  QueuedRequest queued;
  queued.tenant_slot = static_cast<std::uint32_t>(slot);
  queued.submitted_at = Clock::now();
  const std::chrono::microseconds timeout =
      request.timeout.count() > 0 ? request.timeout : config_.default_timeout;
  if (timeout.count() > 0) queued.deadline = queued.submitted_at + timeout;
  queued.request = std::move(request);

  Shard::Admission admission = Shard::Admission::kQueueFull;
  if (!stopping_.load(std::memory_order_relaxed)) {
    admission = shard.TrySubmit(queued);
    if (admission == Shard::Admission::kAdmitted) {
      span.Tag("admitted", 1);
      return true;
    }
  }
  // Shed on the submitting thread: typed overload error, no queueing.
  // (TrySubmit leaves `queued` intact on failure.)
  span.Tag("admitted", 0);
  support::trace::Instant("gateway.shed", "shard", index);
  shard.stats().OnShed();
  const bool quota = admission == Shard::Admission::kQuota;
  if (quota) {
    support::trace::Instant("gateway.quota_shed", "shard", index);
    tenant_table_.stats(slot).OnQuotaShed();
  } else {
    tenant_table_.stats(slot).OnShed();
  }
  Response response;
  response.error = core::ErrorCode::kOverloaded;
  response.message = stopping_.load(std::memory_order_relaxed)
                         ? "gateway is stopping"
                         : (quota ? "tenant over admission quota"
                                  : "shard queue above shed watermark");
  response.shard = index;
  InvokeCompletion(queued.request, response);
  return false;
}

bool Gateway::Submit(const BorrowedRequest& request,
                     std::function<void(const Response&)> on_complete) {
  support::trace::Span span("gateway.submit");
  const std::uint32_t index = ShardFor(request.client_id);
  span.Tag("shard", index);
  Shard& shard = *shards_[index];

  const std::size_t slot = tenant_table_.SlotFor(request.tenant);
  tenant_table_.stats(slot).OnSubmitted();

  // Admission first, materialization second: a shed decision must not
  // cost a string copy — the wire layer hands views into its input ring
  // precisely so the overload path stays allocation-free.
  Shard::Admission admission = Shard::Admission::kQueueFull;
  if (!stopping_.load(std::memory_order_relaxed)) {
    admission = shard.ProbeAdmission(slot);
  }
  if (!stopping_.load(std::memory_order_relaxed) &&
      admission == Shard::Admission::kAdmitted) {
    QueuedRequest queued;
    queued.tenant_slot = static_cast<std::uint32_t>(slot);
    queued.submitted_at = Clock::now();
    const std::chrono::microseconds timeout = request.timeout.count() > 0
                                                  ? request.timeout
                                                  : config_.default_timeout;
    if (timeout.count() > 0) queued.deadline = queued.submitted_at + timeout;
    Request& owned = queued.request;
    owned.client_id = request.client_id;
    owned.tenant = request.tenant;
    owned.platform = request.platform;
    owned.op = request.op;
    owned.target.assign(request.target.data(), request.target.size());
    owned.payload.assign(request.payload.data(), request.payload.size());
    owned.content_type.assign(request.content_type.data(),
                              request.content_type.size());
    owned.properties.reserve(request.property_count);
    for (std::size_t i = 0; i < request.property_count; ++i) {
      const BorrowedProperty& property = request.properties[i];
      std::string name(property.name);
      if (const auto* s = std::get_if<std::string_view>(&property.value)) {
        owned.properties.emplace_back(std::move(name), std::string(*s));
      } else if (const auto* n = std::get_if<long long>(&property.value)) {
        owned.properties.emplace_back(std::move(name), *n);
      } else if (const auto* d = std::get_if<double>(&property.value)) {
        owned.properties.emplace_back(std::move(name), *d);
      } else {
        owned.properties.emplace_back(std::move(name),
                                      std::get<bool>(property.value));
      }
    }
    owned.timeout = request.timeout;
    owned.retry = request.retry;
    owned.on_complete = std::move(on_complete);
    admission = shard.TrySubmit(queued);
    if (admission == Shard::Admission::kAdmitted) {
      span.Tag("admitted", 1);
      return true;
    }
    // Lost the race for the last queue slot; shed the materialized copy.
    on_complete = std::move(queued.request.on_complete);
  }
  span.Tag("admitted", 0);
  support::trace::Instant("gateway.shed", "shard", index);
  shard.stats().OnShed();
  const bool quota = admission == Shard::Admission::kQuota;
  if (quota) {
    support::trace::Instant("gateway.quota_shed", "shard", index);
    tenant_table_.stats(slot).OnQuotaShed();
  } else {
    tenant_table_.stats(slot).OnShed();
  }
  Response response;
  response.error = core::ErrorCode::kOverloaded;
  response.message = stopping_.load(std::memory_order_relaxed)
                         ? "gateway is stopping"
                         : (quota ? "tenant over admission quota"
                                  : "shard queue above shed watermark");
  response.shard = index;
  InvokeCompletionFn(on_complete, response);
  return false;
}

Response Gateway::Call(Request request) {
  struct Rendezvous {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    Response response;
  } rendezvous;
  request.on_complete = [&rendezvous](const Response& response) {
    // Notify under the lock: the waiter owns `rendezvous` on its stack, so
    // the callback must not touch it after the waiter can observe done —
    // holding the mutex through the notify pins the waiter in wait().
    std::lock_guard<std::mutex> lock(rendezvous.mutex);
    rendezvous.response = response;
    rendezvous.done = true;
    rendezvous.cv.notify_one();
  };
  Submit(std::move(request));
  std::unique_lock<std::mutex> lock(rendezvous.mutex);
  rendezvous.cv.wait(lock, [&rendezvous] { return rendezvous.done; });
  return rendezvous.response;
}

bool Gateway::SubmitScript(ScriptRequest request) {
  support::trace::Span span("gateway.submit_script");
  const std::uint32_t index = ShardFor(request.client_id);
  span.Tag("shard", index);
  Shard& shard = *shards_[index];
  const std::size_t slot = tenant_table_.SlotFor(request.tenant);
  tenant_table_.stats(slot).OnSubmitted();

  QueuedRequest queued;
  queued.tenant_slot = static_cast<std::uint32_t>(slot);
  queued.submitted_at = Clock::now();
  const std::chrono::microseconds timeout =
      request.timeout.count() > 0 ? request.timeout : config_.default_timeout;
  if (timeout.count() > 0) queued.deadline = queued.submitted_at + timeout;
  queued.script = std::make_unique<ScriptRequest>(std::move(request));

  Shard::Admission admission = Shard::Admission::kQueueFull;
  if (!stopping_.load(std::memory_order_relaxed)) {
    admission = shard.TrySubmit(queued);
    if (admission == Shard::Admission::kAdmitted) {
      span.Tag("admitted", 1);
      return true;
    }
  }
  // Shed on the submitting thread, exactly like Submit(Request).
  span.Tag("admitted", 0);
  support::trace::Instant("gateway.shed", "shard", index);
  shard.stats().OnShed();
  const bool quota = admission == Shard::Admission::kQuota;
  if (quota) {
    support::trace::Instant("gateway.quota_shed", "shard", index);
    tenant_table_.stats(slot).OnQuotaShed();
  } else {
    tenant_table_.stats(slot).OnShed();
  }
  ScriptResponse response;
  response.error = core::ErrorCode::kOverloaded;
  response.message = stopping_.load(std::memory_order_relaxed)
                         ? "gateway is stopping"
                         : (quota ? "tenant over admission quota"
                                  : "shard queue above shed watermark");
  response.shard = index;
  InvokeScriptCompletionFn(queued.script->on_complete, response);
  return false;
}

ScriptResponse Gateway::CallScript(ScriptRequest request) {
  struct Rendezvous {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    ScriptResponse response;
  } rendezvous;
  request.on_complete = [&rendezvous](const ScriptResponse& response) {
    // Notify under the lock for the same lifetime reason as Call().
    std::lock_guard<std::mutex> lock(rendezvous.mutex);
    rendezvous.response = response;
    rendezvous.done = true;
    rendezvous.cv.notify_one();
  };
  SubmitScript(std::move(request));
  std::unique_lock<std::mutex> lock(rendezvous.mutex);
  rendezvous.cv.wait(lock, [&rendezvous] { return rendezvous.done; });
  return rendezvous.response;
}

void Gateway::Stop() {
  stopping_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) shard->Close();
  for (auto& shard : shards_) shard->Join();
}

GatewaySnapshot Gateway::Stats() const {
  std::vector<ShardSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  for (const auto& shard : shards_) snapshots.push_back(shard->Snapshot());
  return Aggregate(std::move(snapshots));
}

std::vector<TenantSnapshot> Gateway::TenantStatsSnapshot() const {
  return tenant_table_.Snapshot();
}

bool Gateway::Drain(std::chrono::microseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    const GatewaySnapshot snapshot = Stats();
    // completed (ok + failed + timed_out) catches up to accepted exactly
    // when no admitted request is queued or in flight. The caller must
    // have fenced new admissions; otherwise this races fresh traffic and
    // simply keeps waiting.
    if (snapshot.totals.completed() >= snapshot.totals.accepted) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

support::MetricsRegistry::Registration Gateway::RegisterMetrics(
    support::MetricsRegistry& registry, std::string prefix) const {
  return registry.Register(
      std::move(prefix), [this](support::MetricsSink& sink) {
        const GatewaySnapshot snapshot = Stats();
        const ShardSnapshot& totals = snapshot.totals;
        sink.Counter("accepted", totals.accepted);
        sink.Counter("shed", totals.shed);
        sink.Counter("ok", totals.ok);
        sink.Counter("failed", totals.failed);
        sink.Counter("timed_out", totals.timed_out);
        sink.Counter("retries", totals.retries);
        sink.Counter("failovers", totals.failovers);
        sink.Counter("hedges_fired", totals.hedges_fired);
        sink.Counter("hedges_won", totals.hedges_won);
        sink.Counter("breaker_opens", totals.breaker_opens);
        sink.Counter("faults_injected", totals.faults_injected);
        // M-Script: executed is in-sandbox runs (subset of accepted);
        // budget_kills is the subset of errors/timeouts caused by a
        // sandbox ceiling — every one a typed status, never a fault.
        sink.Counter("script.executed", totals.scripts);
        sink.Counter("script.errors", totals.script_errors);
        sink.Counter("script.budget_kills", totals.script_budget_kills);
        sink.Counter("script.steps", totals.script_steps);
        sink.Counter("script.invocations", totals.script_invocations);
        sink.Counter("script.cache_hits", totals.script_cache_hits);
        sink.Counter("script.cache_misses", totals.script_cache_misses);
        sink.Counter("queue_depth", totals.queue_depth);
        sink.Counter("max_queue_depth", totals.max_queue_depth);
        sink.Gauge("latency_p50_us",
                   static_cast<double>(snapshot.p50_micros()));
        sink.Gauge("latency_p95_us",
                   static_cast<double>(snapshot.p95_micros()));
        sink.Gauge("latency_p99_us",
                   static_cast<double>(snapshot.p99_micros()));
        for (std::size_t i = 0; i < snapshot.shards.size(); ++i) {
          const ShardSnapshot& s = snapshot.shards[i];
          const std::string base = "shard." + std::to_string(i) + ".";
          sink.Counter(base + "accepted", s.accepted);
          sink.Counter(base + "shed", s.shed);
          sink.Counter(base + "ok", s.ok);
          sink.Counter(base + "failed", s.failed);
          sink.Counter(base + "timed_out", s.timed_out);
          sink.Counter(base + "retries", s.retries);
          sink.Counter(base + "failovers", s.failovers);
          sink.Counter(base + "hedges_fired", s.hedges_fired);
          sink.Counter(base + "hedges_won", s.hedges_won);
          sink.Counter(base + "breaker_opens", s.breaker_opens);
          sink.Counter(base + "faults_injected", s.faults_injected);
          sink.Counter(base + "script.executed", s.scripts);
          sink.Counter(base + "script.errors", s.script_errors);
          sink.Counter(base + "script.budget_kills", s.script_budget_kills);
          sink.Counter(base + "queue_depth", s.queue_depth);
          sink.Counter(base + "max_queue_depth", s.max_queue_depth);
        }
        // Per-tenant serving counters under tenant.<name>.* — the
        // admission-isolation plane. Quiescent, every tenant reconciles
        // exactly: ok + failed + timed_out + shed == submitted.
        for (const TenantSnapshot& t : tenant_table_.Snapshot()) {
          const std::string base = "tenant." + t.name + ".";
          sink.Counter(base + "weight", t.weight);
          sink.Counter(base + "submitted", t.submitted);
          sink.Counter(base + "accepted", t.accepted);
          sink.Counter(base + "shed", t.shed);
          sink.Counter(base + "quota_shed", t.quota_shed);
          sink.Counter(base + "ok", t.ok);
          sink.Counter(base + "failed", t.failed);
          sink.Counter(base + "timed_out", t.timed_out);
          sink.Counter(base + "retries", t.retries);
          sink.Gauge(base + "latency_p50_us",
                     static_cast<double>(t.latency.Percentile(0.50)));
          sink.Gauge(base + "latency_p95_us",
                     static_cast<double>(t.latency.Percentile(0.95)));
        }
        // M-Push feed totals across shards — the notifier/feeder plane's
        // health: how much was published, how much the replay rings have
        // already forgotten, how many live listeners are attached.
        PushFeed::Counters push;
        for (const auto& shard : shards_) {
          const PushFeed::Counters c = shard->feed().GetCounters();
          push.published += c.published;
          push.evicted += c.evicted;
          push.listeners += c.listeners;
          push.replays += c.replays;
          push.replay_gaps += c.replay_gaps;
        }
        sink.Counter("push.published", push.published);
        sink.Counter("push.evicted", push.evicted);
        sink.Counter("push.listeners", push.listeners);
        sink.Counter("push.replays", push.replays);
        sink.Counter("push.replay_gaps", push.replay_gaps);
        // Per-proxy OverheadMeter counts summed across every shard's nine
        // proxies: the paper's de-fragmentation-overhead attribution, as a
        // live metric.
        std::array<std::uint64_t, kOpCount> counts{};
        std::uint64_t charged_us = 0;
        for (const auto& shard : shards_) {
          shard->AddMeterCounts(counts, charged_us);
        }
        for (int op = 0; op < kOpCount; ++op) {
          sink.Counter(
              std::string("op.") + core::ToString(static_cast<core::Op>(op)),
              counts[static_cast<std::size_t>(op)]);
        }
        sink.Counter("op.charged_virtual_us", charged_us);
      });
}

}  // namespace mobivine::gateway
