// The one evaluator behind every QUERY answer. Both the wire path
// (FrameServer's QUERY handler) and the in-process path (tests, the CLI's
// --check recomputation) call AnswerQuery on the same PublishedView, so a
// served answer is bit-identical to the local estimate by construction —
// same code, same view, and doubles ride the wire as exact memcpy
// round-trips.
//
// Hostile input: every core estimator downstream (JoinEstimate,
// LdpChainJoinEstimate, RangeCountEstimate, ...) enforces its contract
// with LDPJS_CHECK — an abort, correct for in-process misuse but never
// acceptable for bytes that arrived over a socket. AnswerQuery therefore
// pre-validates everything a request could get wrong (corrupt or
// mismatched probe sketches, chain dimension and seed mismatches, unbounded
// domain/range scans) and returns InvalidArgument/Corruption instead of
// ever letting a hostile payload reach a CHECK.
#ifndef LDPJS_SERVICE_QUERY_ENGINE_H_
#define LDPJS_SERVICE_QUERY_ENGINE_H_

#include "common/result.h"
#include "net/protocol.h"
#include "service/published_view.h"

namespace ldpjs {

/// Evaluates `request` against `view`, filling the response's answer and
/// view-identity fields. Pure: no locks, no globals — safe to call
/// concurrently from any number of reader threads on the same view.
Result<QueryResponse> AnswerQuery(const PublishedView& view,
                                  const QueryRequest& request);

}  // namespace ldpjs

#endif  // LDPJS_SERVICE_QUERY_ENGINE_H_
