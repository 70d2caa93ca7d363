// Batched (block-at-a-time) plans for Q5 and Q9, built on the src/exec
// operator framework, plus the explicit scalar entry points they shadow.
// (Q14 has a single plan in complex_queries.cc.)
//
// The public Query5/Query9 in complex_queries.h dispatch on the
// process-wide exec::DefaultExecMode(), so the driver, the golden replay
// and the benches switch engines with one flag and zero call-site churn.
// The *Scalar/*Batched names here pin an engine explicitly — the
// differential fuzzer runs both against the oracle, the equivalence tests
// compare them row for row, and the plan-ablation bench times them against
// each other.
//
// Contract: for every store state and parameter set, the batched plan
// returns BYTE-identical results to the scalar plan (same rows, same
// order). The per-query equivalence arguments live as
// comments on the implementations; the golden-set replay and the
// 200-graph differential fuzz campaign enforce the contract continuously.
#ifndef SNB_QUERIES_BATCHED_QUERIES_H_
#define SNB_QUERIES_BATCHED_QUERIES_H_

#include <vector>

#include "queries/complex_queries.h"
#include "queries/query9_plans.h"

namespace snb::queries {

// ---- Q5: new groups ---------------------------------------------------

std::vector<Q5Result> Query5Scalar(const GraphStore& store,
                                   schema::PersonId start,
                                   TimestampMs min_date, int limit = 20);

/// Batched plan: two-hop circle via sorted-set kernels, circle membership
/// as a flat hash-set build, per-forum creator gather + block probe,
/// bounded top-`limit` heap.
std::vector<Q5Result> Query5Batched(const GraphStore& store,
                                    schema::PersonId start,
                                    TimestampMs min_date, int limit = 20);

// ---- Q9: latest messages of 2-hop circle ------------------------------

std::vector<Q9Result> Query9Scalar(const GraphStore& store,
                                   schema::PersonId start,
                                   TimestampMs max_date, int limit = 20);

/// Batched plan: two-hop circle via sorted-set kernels, blockwise
/// date-bounded message scan with per-person top-`limit` truncation,
/// bounded top-`limit` heap instead of a full sort. When `stats` /
/// `profile` are non-null they are filled with the same counters the
/// scalar Query9WithPlan reports (hash_build stays untouched — this plan
/// builds no friends hash table), so the Figure 4 ablation can put the
/// batched plan on the same axes as the scalar plans.
std::vector<Q9Result> Query9Batched(const GraphStore& store,
                                    schema::PersonId start,
                                    TimestampMs max_date, int limit = 20,
                                    Q9PlanStats* stats = nullptr,
                                    Q9OperatorProfile* profile = nullptr);

}  // namespace snb::queries

#endif  // SNB_QUERIES_BATCHED_QUERIES_H_
