#include "mix.h"

#include <cmath>
#include <cstdlib>

#include "gateway/gateway.h"

namespace perfbench {

using mobivine::gateway::Op;
using mobivine::gateway::Platform;

namespace {

constexpr std::size_t kPoolBytes = 4096;
constexpr std::uint32_t kMinPayload = 16;
constexpr std::uint32_t kMaxPayload = 1024;
/// cellular_modem.h's default sms_segment_chars.
constexpr std::size_t kSmsSegmentChars = 160;

std::string HttpUrl(std::string_view path) {
  return std::string("http://") + mobivine::gateway::kGatewayHttpHost +
         std::string(path);
}

Platform PlatformAt(std::uint64_t i) {
  static constexpr Platform kPlatforms[] = {Platform::kAndroid, Platform::kS60,
                                            Platform::kIphone};
  return kPlatforms[i % 3];
}

std::uint32_t LogUniformSize(mobivine::support::SplitMix64& rng) {
  const double ratio = static_cast<double>(kMaxPayload) / kMinPayload;
  return static_cast<std::uint32_t>(
      std::lround(kMinPayload * std::pow(ratio, rng.NextUnit())));
}

bool IsPositiveInteger(std::string_view text) {
  if (text.empty() || text.size() > 18) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  return std::strtoll(std::string(text).c_str(), nullptr, 10) > 0;
}

std::string SegmentCount(std::size_t chars) {
  return std::to_string(chars == 0 ? 1
                                   : (chars + kSmsSegmentChars - 1) /
                                         kSmsSegmentChars);
}

}  // namespace

constexpr double kFixLatitude = 28.5245;
constexpr double kFixLongitude = 77.1855;

const std::string& NominalLocation() {
  static const std::string location =
      std::to_string(kFixLatitude) + "," + std::to_string(kFixLongitude);
  return location;
}

namespace {

/// A std::to_string(double) rendering near `want`: digits, one point,
/// six decimals.
bool IsCoordinate(std::string_view text, double want) {
  const std::size_t point = text.find('.');
  if (point == std::string_view::npos || point == 0 ||
      text.size() - point - 1 != 6) {
    return false;
  }
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (i != point && (text[i] < '0' || text[i] > '9')) return false;
  }
  return std::fabs(std::strtod(std::string(text).c_str(), nullptr) - want) <
         0.01;
}

}  // namespace

bool IsLocation(std::string_view text) {
  const std::size_t comma = text.find(',');
  return comma != std::string_view::npos &&
         IsCoordinate(text.substr(0, comma), kFixLatitude) &&
         IsCoordinate(text.substr(comma + 1), kFixLongitude);
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

RequestMix::RequestMix(const mobivine::support::SeedSequence& seq,
                       std::uint64_t clients)
    : rng_(seq.Fork("requests").stream()), clients_(clients) {
  mobivine::support::SplitMix64 bytes = seq.Fork("payload-pool").stream();
  pool_.resize(kPoolBytes);
  for (char& c : pool_) c = static_cast<char>('a' + bytes.NextBelow(26));
}

RequestSpec RequestMix::Next() {
  RequestSpec spec;
  spec.client_id = 1 + rng_.NextBelow(clients_);
  spec.platform = PlatformAt(rng_.NextBelow(3));
  // getLocation 30%, the other four 17.5% each; 5/6 of getLocation
  // requests carry a property override, i.e. 25% of all requests.
  const std::uint64_t roll = rng_.NextBelow(1000);
  if (roll < 300) {
    spec.op = Op::kGetLocation;
    if (rng_.NextBelow(6) != 0) {
      spec.property = 1 + static_cast<std::uint32_t>(rng_.NextBelow(20));
    }
  } else {
    static constexpr Op kOthers[] = {Op::kSendSms, Op::kHttpGet, Op::kHttpPost,
                                     Op::kSegmentCount};
    spec.op = kOthers[(roll - 300) / 175];
    spec.payload_size = LogUniformSize(rng_);
    spec.payload_offset = static_cast<std::uint32_t>(
        rng_.NextBelow(kPoolBytes - spec.payload_size + 1));
  }
  return spec;
}

std::string_view RequestMix::Payload(const RequestSpec& spec) const {
  return std::string_view(pool_).substr(spec.payload_offset, spec.payload_size);
}

namespace {

template <typename Target>
void FillCommon(const RequestSpec& spec, std::string_view payload,
                Target* out) {
  out->client_id = spec.client_id;
  out->platform = spec.platform;
  out->op = spec.op;
  out->target.clear();
  out->payload.clear();
  out->content_type.clear();
  out->properties.clear();
  switch (spec.op) {
    case Op::kGetLocation:
      if (spec.property == 0) break;
      switch (spec.platform) {
        case Platform::kAndroid:
          out->properties.emplace_back(
              "provider", mobivine::core::PropertyValue(std::string("gps")));
          break;
        case Platform::kS60:
          out->properties.emplace_back(
              "horizontalAccuracy", static_cast<long long>(spec.property) * 10);
          break;
        case Platform::kIphone:
          out->properties.emplace_back("desiredAccuracy",
                                       spec.property * 5.0);
          break;
      }
      break;
    case Op::kSendSms:
      out->target = mobivine::gateway::kGatewaySmsPeer;
      out->payload.assign(payload);
      break;
    case Op::kHttpGet:
      out->target = HttpUrl("/ping");
      break;
    case Op::kHttpPost:
      out->target = HttpUrl("/ingest");
      out->payload.assign(payload);
      out->content_type = "text/plain";
      break;
    case Op::kSegmentCount:
      out->payload.assign(payload);
      break;
  }
}

}  // namespace

void RequestMix::Fill(const RequestSpec& spec,
                      mobivine::wire::WireRequest* out) const {
  FillCommon(spec, Payload(spec), out);
}

void RequestMix::Fill(const RequestSpec& spec,
                      mobivine::gateway::Request* out) const {
  FillCommon(spec, Payload(spec), out);
}

std::string RequestMix::Check(const RequestSpec& spec,
                              std::string_view body) const {
  bool ok = false;
  switch (spec.op) {
    case Op::kGetLocation:
      ok = IsLocation(body);
      break;
    case Op::kSendSms:
      ok = IsPositiveInteger(body);
      break;
    case Op::kHttpGet:
      ok = body == "pong";
      break;
    case Op::kHttpPost:
      ok = body == Payload(spec);
      break;
    case Op::kSegmentCount:
      ok = body == SegmentCount(spec.payload_size);
      break;
  }
  if (ok) return {};
  return std::string(mobivine::gateway::ToString(spec.op)) + " on " +
         mobivine::gateway::ToString(spec.platform) + " returned '" +
         std::string(body.substr(0, 64)) + "'";
}

std::uint64_t RequestMix::Word(const RequestSpec& spec) {
  return spec.client_id ^ (static_cast<std::uint64_t>(spec.platform) << 20) ^
         (static_cast<std::uint64_t>(spec.op) << 24) ^
         (static_cast<std::uint64_t>(spec.payload_offset) << 28) ^
         (static_cast<std::uint64_t>(spec.payload_size) << 42) ^
         (static_cast<std::uint64_t>(spec.property) << 56);
}

// ---------------------------------------------------------------------------
// Scripts
// ---------------------------------------------------------------------------

const char* const kCompositeScript = R"JS(
var loc = mobile.invoke(args.platform, 'getLocation');
var posted = mobile.invoke(args.platform, 'httpPost', args.ingest,
                           loc + '|' + args.tag, 'text/plain');
var id = mobile.invoke(args.platform, 'sendSms', args.peer, posted);
posted + '#' + (Number(id) > 0);
)JS";

const char* const kComputeScript = R"JS(
var n = Number(args.n);
var acc = 0;
for (var i = 0; i < n; i = i + 1) {
  acc = (acc * 31 + i) % 1000003;
}
var segments = mobile.invoke(args.platform, 'segmentCount', '', args.text);
acc + ':' + segments;
)JS";

ScriptMix::ScriptMix(const mobivine::support::SeedSequence& seq,
                     std::uint64_t clients, double unique_share)
    : rng_(seq.Fork("scripts").stream()),
      clients_(clients),
      unique_share_(unique_share) {}

ScriptSpec ScriptMix::Next() {
  ScriptSpec spec;
  spec.client_id = 1 + rng_.NextBelow(clients_);
  spec.platform = PlatformAt(rng_.NextBelow(3));
  spec.compute = rng_.NextBelow(10) < 3;  // 30% compute-heavier
  spec.unique = rng_.NextUnit() < unique_share_;
  if (spec.unique) spec.nonce = next_nonce_++;
  if (spec.compute) {
    spec.loop_n = 100 + static_cast<std::uint32_t>(rng_.NextBelow(201));
    spec.text_size = LogUniformSize(rng_);
  } else {
    spec.tag = rng_.Next() >> 16;
  }
  return spec;
}

std::string ScriptMix::Source(const ScriptSpec& spec) const {
  std::string source;
  if (spec.unique) source = "var nonce = " + std::to_string(spec.nonce) + ";";
  source += spec.compute ? kComputeScript : kCompositeScript;
  return source;
}

void ScriptMix::Fill(const ScriptSpec& spec,
                     mobivine::wire::WireScriptRequest* out) const {
  out->client_id = spec.client_id;
  out->source = Source(spec);
  out->args.clear();
  out->args.emplace_back("platform", mobivine::gateway::ToString(spec.platform));
  if (spec.compute) {
    out->args.emplace_back("n", std::to_string(spec.loop_n));
    out->args.emplace_back("text", std::string(spec.text_size, 'm'));
  } else {
    out->args.emplace_back("ingest", HttpUrl("/ingest"));
    out->args.emplace_back("peer", mobivine::gateway::kGatewaySmsPeer);
    out->args.emplace_back("tag", std::to_string(spec.tag));
  }
}

std::string ScriptMix::Check(const ScriptSpec& spec,
                             std::string_view body) const {
  bool ok = false;
  if (spec.compute) {
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < spec.loop_n; ++i) {
      acc = (acc * 31 + i) % 1000003;
    }
    ok = body == std::to_string(acc) + ":" + SegmentCount(spec.text_size);
  } else {
    // location|tag#true: the fix travelled through httpPost's echo and
    // sendSms returned a positive message id.
    const std::size_t bar = body.find('|');
    ok = bar != std::string_view::npos && IsLocation(body.substr(0, bar)) &&
         body.substr(bar + 1) == std::to_string(spec.tag) + "#true";
  }
  if (ok) return {};
  return std::string(spec.compute ? "compute" : "composite") +
         " script returned '" + std::string(body.substr(0, 80)) + "'";
}

std::uint64_t ScriptMix::Word(const ScriptSpec& spec) {
  return spec.client_id ^ (static_cast<std::uint64_t>(spec.platform) << 20) ^
         (static_cast<std::uint64_t>(spec.compute) << 22) ^
         (spec.nonce << 23) ^ (static_cast<std::uint64_t>(spec.loop_n) << 40) ^
         (static_cast<std::uint64_t>(spec.text_size) << 50) ^ spec.tag;
}

// ---------------------------------------------------------------------------
// Push events
// ---------------------------------------------------------------------------

std::string EventBody(std::uint64_t seq, std::uint32_t size) {
  std::string body = std::to_string(seq) + ":" + std::to_string(size) + ":";
  for (std::uint32_t i = 0; i < size; ++i) {
    body.push_back(static_cast<char>('a' + (seq + i) % 26));
  }
  return body;
}

bool ParseEventBody(std::string_view body, std::uint64_t* seq) {
  const std::size_t first = body.find(':');
  if (first == std::string_view::npos) return false;
  const std::size_t second = body.find(':', first + 1);
  if (second == std::string_view::npos) return false;
  const std::uint64_t parsed =
      std::strtoull(std::string(body.substr(0, first)).c_str(), nullptr, 10);
  const auto size = static_cast<std::uint32_t>(std::strtoul(
      std::string(body.substr(first + 1, second - first - 1)).c_str(), nullptr,
      10));
  if (body != EventBody(parsed, size)) return false;
  *seq = parsed;
  return true;
}

}  // namespace perfbench
