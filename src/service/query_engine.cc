#include "service/query_engine.h"

#include <cmath>
#include <utility>
#include <vector>

#include "core/aqp.h"
#include "core/freq_items.h"
#include "core/multiway.h"

namespace ldpjs {

namespace {

/// Finalizes a decoded probe sketch if it arrived as raw lanes — clients
/// may ship either; predicate and chain joins need finalized cells.
Result<LdpJoinSketchServer> Finalized(Result<LdpJoinSketchServer> probe) {
  if (probe.ok() && !probe->finalized()) probe->Finalize();
  return probe;
}

/// A join probe decodes against the view's shape, so the estimators' shape
/// checks hold; its ε may differ. A probe of another k, m or seed is a bad
/// request, InvalidArgument like every other.
Result<LdpJoinSketchServer> DecodeJoinProbe(
    const LdpJoinSketchServer& view_sketch, std::span<const uint8_t> bytes) {
  auto probe = view_sketch.DeserializeLike(bytes);
  if (probe.status().code() == StatusCode::kFailedPrecondition) {
    return Status::InvalidArgument(
        "probe sketch params do not match the served view (k/m/seed)");
  }
  return probe;
}

Status CheckRange(uint64_t lo, uint64_t hi) {
  if (lo > hi) return Status::InvalidArgument("query range lo > hi");
  const uint64_t width = hi - lo + 1;  // lo <= hi, so no overflow
  if (width == 0 || width > kMaxQueryRangeWidth) {
    return Status::InvalidArgument("query range width exceeds the limit of " +
                                   std::to_string(kMaxQueryRangeWidth));
  }
  return Status::OK();
}

}  // namespace

Result<QueryResponse> AnswerQuery(const PublishedView& view,
                                  const QueryRequest& request) {
  QueryResponse response;
  response.kind = request.kind;
  response.view_sequence = view.sequence;
  response.view_aligned = view.aligned;
  response.view_epoch = view.epoch;
  response.view_reports = view.reports();

  switch (request.kind) {
    case QueryKind::kJoinSize: {
      auto probe = DecodeJoinProbe(view.sketch, request.probe_sketch);
      if (!probe.ok()) return probe.status();
      if (probe->finalized()) {
        return Status::InvalidArgument("join probes carry raw lanes");
      }
      response.value = view.sketch.JoinEstimate(*probe);
      break;
    }
    case QueryKind::kFrequency: {
      response.value = view.sketch.FrequencyEstimate(request.key);
      break;
    }
    case QueryKind::kFrequentItems: {
      if (request.domain == 0 || request.domain > kMaxQueryDomain) {
        return Status::InvalidArgument(
            "frequent-items domain must be in [1, " +
            std::to_string(kMaxQueryDomain) + "]");
      }
      if (!std::isfinite(request.threshold)) {
        return Status::InvalidArgument("frequent-items threshold not finite");
      }
      const FrequentItems items =
          FindFrequentItems(view.sketch, request.domain, request.threshold);
      response.items.assign(items.begin(), items.end());  // ascending
      response.value = static_cast<double>(response.items.size());
      break;
    }
    case QueryKind::kMultiwayChain: {
      if (request.middles.empty()) {
        return Status::InvalidArgument("multiway chain needs >= 1 middle");
      }
      if (request.middles.size() > kMaxQueryMiddles) {
        return Status::InvalidArgument("too many multiway middles");
      }
      std::vector<LdpMultiwayServer> middles;
      middles.reserve(request.middles.size());
      // Chain links must agree one by one (the estimator CHECKs them): the
      // view's (m, seed) is the first middle's left side, each middle's
      // right side is the next one's left, and the last right side is the
      // probe's.
      int dim = view.sketch.params().m;
      uint64_t seed = view.sketch.params().seed;
      for (const auto& bytes : request.middles) {
        auto middle = LdpMultiwayServer::Deserialize(bytes);
        if (!middle.ok()) return middle.status();
        if (!middle->finalized()) {
          return Status::InvalidArgument(
              "multiway middles must arrive finalized");
        }
        if (middle->params().k != view.sketch.params().k) {
          return Status::InvalidArgument("multiway middle k mismatch");
        }
        if (middle->params().m_left != dim) {
          return Status::InvalidArgument("multiway chain dimension mismatch");
        }
        if (middle->params().left_seed != seed) {
          return Status::InvalidArgument("multiway chain seed mismatch");
        }
        dim = middle->params().m_right;
        seed = middle->params().right_seed;
        middles.push_back(std::move(*middle));
      }
      // The chain's last sketch has its own m and seed by design, so it
      // decodes against a fresh shape, built only once its header matches
      // the chain: a probe costs at most the view's k rows of tables.
      auto header = LdpJoinSketchServer::ReadHeader(request.probe_sketch);
      if (!header.ok()) return header.status();
      if (header->params.k != view.sketch.params().k) {
        return Status::InvalidArgument("multiway probe k mismatch");
      }
      if (header->params.m != dim) {
        return Status::InvalidArgument("multiway chain dimension mismatch");
      }
      if (header->params.seed != seed) {
        return Status::InvalidArgument("multiway chain seed mismatch");
      }
      auto probe =
          Finalized(LdpJoinSketchServer::Deserialize(request.probe_sketch));
      if (!probe.ok()) return probe.status();
      std::vector<const LdpMultiwayServer*> middle_ptrs;
      middle_ptrs.reserve(middles.size());
      for (const LdpMultiwayServer& middle : middles) {
        middle_ptrs.push_back(&middle);
      }
      response.value =
          LdpChainJoinEstimate(view.sketch, middle_ptrs, *probe);
      break;
    }
    case QueryKind::kRangeCount: {
      LDPJS_RETURN_IF_ERROR(CheckRange(request.range_lo, request.range_hi));
      response.value = RangeCountEstimate(
          view.sketch, ValueRange{request.range_lo, request.range_hi});
      break;
    }
    case QueryKind::kPredicateJoin: {
      LDPJS_RETURN_IF_ERROR(CheckRange(request.range_lo, request.range_hi));
      auto probe =
          Finalized(DecodeJoinProbe(view.sketch, request.probe_sketch));
      if (!probe.ok()) return probe.status();
      response.value = PredicateJoinEstimate(
          view.sketch, *probe, ValueRange{request.range_lo, request.range_hi});
      break;
    }
    default:
      return Status::InvalidArgument("unknown query kind");
  }
  return response;
}

}  // namespace ldpjs
