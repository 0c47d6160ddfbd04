// The benchmark's inputs: compact operation specs drawn from a seed, the
// wire/gateway requests they expand to, and the response each one must
// produce. The expected values are computed here, independently of the
// serving stack, from what the simulated device is configured to do.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gateway/request.h"
#include "support/seed.h"
#include "wire/protocol.h"

namespace perfbench {

/// Every shard's simulated GPS sits near this fix (gateway.cpp builds the
/// shard device with a stationary track; the receiver adds its accuracy
/// noise); getLocation answers "lat,lon" with six decimals.
[[nodiscard]] const std::string& NominalLocation();
/// True when `text` is a getLocation answer: "lat,lon", six decimals
/// each, within 0.01 degrees of the nominal fix.
[[nodiscard]] bool IsLocation(std::string_view text);

/// One request of the request mix: all 5 ops x 3 platforms, payloads
/// log-uniform in [16, 1024] bytes, about a quarter carrying a
/// descriptor-valid property override (getLocation is the only op whose
/// bindings declare overridable properties, so it is weighted up).
struct RequestSpec {
  std::uint64_t client_id = 0;
  mobivine::gateway::Platform platform = mobivine::gateway::Platform::kAndroid;
  mobivine::gateway::Op op = mobivine::gateway::Op::kGetLocation;
  std::uint32_t payload_offset = 0;
  std::uint32_t payload_size = 0;
  std::uint32_t property = 0;  ///< 0: none; else a per-platform value
};

/// Draws request specs and expands them. The payload bytes come from one
/// seeded pool, so a spec stays a few words and materializing it is a
/// substring copy.
class RequestMix {
 public:
  RequestMix(const mobivine::support::SeedSequence& seq, std::uint64_t clients);

  [[nodiscard]] RequestSpec Next();
  void Fill(const RequestSpec& spec, mobivine::wire::WireRequest* out) const;
  void Fill(const RequestSpec& spec, mobivine::gateway::Request* out) const;
  [[nodiscard]] std::string_view Payload(const RequestSpec& spec) const;

  /// Empty when `body` is what `spec` must return, else why not.
  [[nodiscard]] std::string Check(const RequestSpec& spec,
                                  std::string_view body) const;

  /// Content word for the schedule digest.
  [[nodiscard]] static std::uint64_t Word(const RequestSpec& spec);

 private:
  mobivine::support::SplitMix64 rng_;
  std::uint64_t clients_;
  std::string pool_;
};

/// One kScript composite: the 3-step getLocation -> httpPost -> sendSms
/// template or the compute-heavier loop template, with per-request args.
/// `unique` scripts carry a nonce line so their source text (and parse
/// cache key) is new.
struct ScriptSpec {
  std::uint64_t client_id = 0;
  bool compute = false;
  bool unique = false;
  std::uint64_t nonce = 0;
  mobivine::gateway::Platform platform = mobivine::gateway::Platform::kAndroid;
  std::uint32_t loop_n = 0;     ///< compute template: iterations
  std::uint32_t text_size = 0;  ///< compute template: segmentCount text
  std::uint64_t tag = 0;        ///< composite: echoed through httpPost
};

extern const char* const kCompositeScript;
extern const char* const kComputeScript;

class ScriptMix {
 public:
  /// `unique_share` of scripts get new source text.
  ScriptMix(const mobivine::support::SeedSequence& seq, std::uint64_t clients,
            double unique_share);

  [[nodiscard]] ScriptSpec Next();
  void Fill(const ScriptSpec& spec, mobivine::wire::WireScriptRequest* out) const;
  /// Empty when `body` is what `spec` must return, else why not.
  [[nodiscard]] std::string Check(const ScriptSpec& spec,
                                  std::string_view body) const;
  [[nodiscard]] static std::uint64_t Word(const ScriptSpec& spec);

 private:
  [[nodiscard]] std::string Source(const ScriptSpec& spec) const;

  mobivine::support::SplitMix64 rng_;
  std::uint64_t clients_;
  double unique_share_;
  std::uint64_t next_nonce_ = 1;
};

/// Push event body: "<seq>:<size>:" then filler derived from seq, so a
/// receiver can rebuild and compare the whole body from its prefix.
[[nodiscard]] std::string EventBody(std::uint64_t seq, std::uint32_t size);
/// Sequence number of a body EventBody produced; false if the body is
/// not exactly what EventBody would give for it.
[[nodiscard]] bool ParseEventBody(std::string_view body, std::uint64_t* seq);

}  // namespace perfbench
