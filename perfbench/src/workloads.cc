#include "src/workloads.h"

#include <algorithm>
#include <thread>

#include "common/clock.h"
#include "src/digest.h"

namespace perfbench {

namespace {

// The benchmark owns its query texts, so an edit to the engine's own
// workload strings cannot change what is measured. They are the TPC-H subset
// the engine supports (Q2 decorrelated, Q7-Q9 flattened) and the paper's
// SSE-Q6..Q9.

const QueryDef kTpch[] = {
    {"tpch_q1",
     "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
     "sum(l_extendedprice) AS sum_base_price, "
     "sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
     "sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
     "avg(l_quantity) AS avg_qty, avg(l_extendedprice) AS avg_price, "
     "avg(l_discount) AS avg_disc, count(*) AS count_order "
     "FROM lineitem WHERE l_shipdate <= '1998-09-02' "
     "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"},
    {"tpch_q2",
     "SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr "
     "FROM part, supplier, partsupp, nation, region, "
     "(SELECT ps_partkey AS mc_partkey, min(ps_supplycost) AS mc_cost "
     " FROM partsupp GROUP BY ps_partkey) mincost "
     "WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey "
     "AND p_size = 15 AND p_type LIKE '%BRASS' "
     "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
     "AND r_name = 'EUROPE' "
     "AND mc_partkey = p_partkey AND ps_supplycost = mc_cost "
     "ORDER BY s_acctbal DESC, n_name, s_name, p_partkey LIMIT 100"},
    {"tpch_q3",
     "SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue, "
     "o_orderdate, o_shippriority "
     "FROM customer, orders, lineitem "
     "WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey "
     "AND l_orderkey = o_orderkey AND o_orderdate < '1995-03-15' "
     "AND l_shipdate > '1995-03-15' "
     "GROUP BY l_orderkey, o_orderdate, o_shippriority "
     "ORDER BY revenue DESC, o_orderdate LIMIT 10"},
    {"tpch_q5",
     "SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue "
     "FROM customer, orders, lineitem, supplier, nation, region "
     "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
     "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
     "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
     "AND r_name = 'ASIA' AND o_orderdate >= '1994-01-01' "
     "AND o_orderdate < '1995-01-01' "
     "GROUP BY n_name ORDER BY revenue DESC"},
    {"tpch_q6",
     "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
     "WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' "
     "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"},
    {"tpch_q7",
     "SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, "
     "YEAR(l_shipdate) AS l_year, "
     "sum(l_extendedprice * (1 - l_discount)) AS revenue "
     "FROM supplier, lineitem, orders, customer, nation n1, nation n2 "
     "WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey "
     "AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey "
     "AND c_nationkey = n2.n_nationkey "
     "AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY') "
     "  OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE')) "
     "AND l_shipdate BETWEEN '1995-01-01' AND '1996-12-31' "
     "GROUP BY n1.n_name, n2.n_name, YEAR(l_shipdate) "
     "ORDER BY supp_nation, cust_nation, l_year"},
    {"tpch_q8",
     "SELECT YEAR(o_orderdate) AS o_year, "
     "sum(CASE WHEN n2.n_name = 'BRAZIL' "
     "    THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END) / "
     "sum(l_extendedprice * (1 - l_discount)) AS mkt_share "
     "FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, "
     "region "
     "WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey "
     "AND l_orderkey = o_orderkey AND o_custkey = c_custkey "
     "AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey "
     "AND r_name = 'AMERICA' AND s_nationkey = n2.n_nationkey "
     "AND o_orderdate BETWEEN '1995-01-01' AND '1996-12-31' "
     "AND p_type = 'ECONOMY ANODIZED STEEL' "
     "GROUP BY YEAR(o_orderdate) ORDER BY o_year"},
    {"tpch_q9",
     "SELECT n_name AS nation, YEAR(o_orderdate) AS o_year, "
     "sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) "
     "AS sum_profit "
     "FROM part, supplier, lineitem, partsupp, orders, nation "
     "WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey "
     "AND ps_partkey = l_partkey AND p_partkey = l_partkey "
     "AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey "
     "AND p_name LIKE '%green%' "
     "GROUP BY n_name, YEAR(o_orderdate) ORDER BY nation, o_year DESC"},
    {"tpch_q10",
     "SELECT c_custkey, c_name, "
     "sum(l_extendedprice * (1 - l_discount)) AS revenue, c_acctbal, n_name, "
     "c_address, c_phone, c_comment "
     "FROM customer, orders, lineitem, nation "
     "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
     "AND o_orderdate >= '1993-10-01' AND o_orderdate < '1994-01-01' "
     "AND l_returnflag = 'R' AND c_nationkey = n_nationkey "
     "GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, "
     "c_comment ORDER BY revenue DESC LIMIT 20"},
    {"tpch_q12",
     "SELECT l_shipmode, "
     "sum(CASE WHEN o_orderpriority = '1-URGENT' "
     "      OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) "
     "AS high_line_count, "
     "sum(CASE WHEN o_orderpriority <> '1-URGENT' "
     "     AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END) "
     "AS low_line_count "
     "FROM orders, lineitem "
     "WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP') "
     "AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate "
     "AND l_receiptdate >= '1994-01-01' AND l_receiptdate < '1995-01-01' "
     "GROUP BY l_shipmode ORDER BY l_shipmode"},
    {"tpch_q14",
     "SELECT 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%' "
     "    THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END) / "
     "sum(l_extendedprice * (1 - l_discount)) AS promo_revenue "
     "FROM lineitem, part "
     "WHERE l_partkey = p_partkey AND l_shipdate >= '1995-09-01' "
     "AND l_shipdate < '1995-10-01'"},
};

// SSE-Q7, the NIC-bound query, takes 6 of every 9 slots. Queries run one at
// a time, so each waits for the other client's, which is a Q7 two times in
// three: every type's median and p95 then sit in clusters the NIC paces,
// away from any cluster edge. (At equal weights a Q7 queued behind a Q7 is
// 1/16 of all queries, right on p95's rank, and the CPU-bound light queries
// set the medians.)
const QueryDef kSse[] = {
    {"sse_q6",
     "SELECT count(*) FROM trades T, securities S "
     "WHERE S.sec_code = 600036 AND T.trade_date = '2010-10-30' "
     "AND S.acct_id = T.acct_id"},
    {"sse_q7",
     "SELECT acct_id, sum(trade_volume) FROM trades GROUP BY acct_id", 6},
    {"sse_q8",
     "SELECT acct_id, sec_code, sum(trade_volume) FROM trades "
     "WHERE trade_date = '2010-10-10' GROUP BY acct_id, sec_code"},
    {"sse_q9",
     "SELECT T.sec_code, S.acct_id, sum(trade_volume), sum(entry_volume) "
     "FROM trades T, securities S "
     "WHERE T.trade_date = '2010-10-30' AND S.entry_date = '2010-10-30' "
     "AND T.acct_id = S.acct_id "
     "GROUP BY T.sec_code, S.acct_id"},
};

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec session;
  session.name = "session-short";
  session.use_service = false;
  session.clients = 1;
  session.scale_factor = 0.005;
  session.mix.assign(std::begin(kTpch), std::end(kTpch));
  specs.push_back(session);

  WorkloadSpec service;
  service.name = "service-mix";
  service.use_service = true;
  service.clients = 2;
  service.scale_factor = 0.05;
  for (const QueryDef& q : kTpch) {
    if (q.label != "tpch_q5") service.mix.push_back(q);
  }
  specs.push_back(service);

  WorkloadSpec sse;
  sse.name = "sse-netbound";
  sse.use_service = true;
  sse.clients = 2;
  sse.tpch = false;
  sse.trades_rows = 400'000;
  sse.securities_rows = 200'000;
  sse.nic_bytes_per_sec = 20'000'000;
  sse.mix.assign(std::begin(kSse), std::end(kSse));
  specs.push_back(sse);
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec>* specs =
      new std::vector<WorkloadSpec>(MakeSpecs());
  return *specs;
}

claims::Result<std::string> Digest(claims::Result<claims::ResultSet> result) {
  if (!result.ok()) return result.status();
  return DigestRows(result->Rows());
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed ^ (stream * 0xD1B54A32D192ED03ULL);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

int64_t NowNs() { return claims::SteadyClock::Default()->NowNanos(); }

claims::Status SetUp(const WorkloadSpec& spec, uint64_t data_seed, Env* env) {
  env->spec = &spec;
  claims::DatabaseOptions options;
  options.cluster.num_nodes = kNumNodes;
  options.cluster.cores_per_node = kCoresPerNode;
  options.cluster.bandwidth_bytes_per_sec = spec.nic_bytes_per_sec;
  env->db = std::make_unique<claims::Database>(options);
  if (spec.tpch) {
    claims::TpchConfig config;
    config.scale_factor = spec.scale_factor;
    config.seed = data_seed;
    CLAIMS_RETURN_IF_ERROR(env->db->LoadTpch(config));
  } else {
    claims::SseConfig config;
    config.trades_rows = spec.trades_rows;
    config.securities_rows = spec.securities_rows;
    config.seed = data_seed;
    CLAIMS_RETURN_IF_ERROR(env->db->LoadSse(config));
  }

  // Reference: the simplest execution the engine has, static parallelism 1.
  claims::ExecOptions reference;
  reference.mode = claims::ExecMode::kStatic;
  reference.parallelism = 1;
  env->reference.clear();
  for (const QueryDef& q : spec.mix) {
    claims::Result<std::string> digest =
        Digest(env->db->Query(q.sql, reference));
    if (!digest.ok()) {
      return claims::Status::Internal(q.label + " reference: " +
                                      digest.status().ToString());
    }
    env->reference.push_back(*digest);
  }

  if (spec.use_service) StartService(env);
  for (int type = 0; type < static_cast<int>(spec.mix.size()); ++type) {
    Sample warm = RunQuery(env, type, 0);
    if (!warm.ok) {
      return claims::Status::Internal(spec.mix[type].label +
                                      " warm-up: " + warm.error);
    }
  }
  env->service.reset();
  return claims::Status::OK();
}

void StartService(Env* env) {
  claims::QueryServiceOptions options;
  options.admission.max_concurrent = kServiceMpl;
  options.admission.core_budget = kServiceCoreBudget;
  options.workers = kServiceMpl;
  env->service =
      std::make_unique<claims::QueryService>(env->db->cluster(), options);
}

Sample RunQuery(Env* env, int type, int client) {
  const QueryDef& q = env->spec->mix[type];
  Sample s;
  s.type = type;
  s.client = client;
  s.start_ns = NowNs();
  claims::Result<std::string> digest = std::string();
  if (env->service == nullptr) {
    claims::Result<claims::ResultSet> result = env->db->Query(q.sql);
    s.end_ns = NowNs();
    const claims::ExecutionReport& report = env->db->executor()->report();
    s.exec_ns = report.elapsed_ns;
    s.remote_bytes = report.remote_bytes;
    digest = Digest(std::move(result));
  } else {
    claims::Result<claims::PhysicalPlan> plan = [&] {
      std::lock_guard<std::mutex> lock(env->plan_mu);
      return env->db->Plan(q.sql);
    }();
    s.plan_end_ns = NowNs();
    if (!plan.ok()) {
      s.end_ns = s.plan_end_ns;
      s.error = plan.status().ToString();
      return s;
    }
    claims::SubmitOptions options;
    options.label = q.label;
    claims::QueryHandlePtr handle =
        env->service->Submit(std::move(*plan), options);
    handle->Wait();
    s.end_ns = NowNs();
    s.submit_ns = handle->submit_ns();
    s.queue_wait_ns = handle->queue_wait_ns();
    s.exec_ns = handle->report().elapsed_ns;
    s.remote_bytes = handle->report().remote_bytes;
    if (handle->status().ok()) {
      digest = DigestRows(handle->result().Rows());
    } else {
      digest = handle->status();
    }
  }
  if (!digest.ok()) {
    s.error = digest.status().ToString();
  } else if (*digest != env->reference[type]) {
    s.error = "digest " + *digest + " != reference " + env->reference[type];
  } else {
    s.ok = true;
  }
  return s;
}

namespace {

void RecordSpans(const Env& env, const Sample& s, SpanRecorder* spans) {
  Span root;
  root.name = "query";
  root.start_ns = s.start_ns;
  root.end_ns = s.end_ns;
  root.tid = s.client;
  root.args = {{"type", env.spec->mix[s.type].label},
               {"dataset", std::to_string(s.dataset)},
               {"ok", s.ok ? "true" : "false"}};
  const uint64_t root_id = spans->Add(root);
  auto child = [&](const char* name, int64_t start, int64_t end) {
    Span c;
    c.parent = root_id;
    c.name = name;
    c.start_ns = start;
    c.end_ns = end;
    c.tid = s.client;
    spans->Add(c);
  };
  if (s.submit_ns > 0) {
    child("sql.plan", s.start_ns, s.plan_end_ns);
    const int64_t dispatch = s.submit_ns + s.queue_wait_ns;
    child("wlm.queue", s.submit_ns, dispatch);
    child("cluster.execute", dispatch, dispatch + s.exec_ns);
  } else {
    // Database::Query plans internally; its plan time stays in the root's
    // self time and execution is placed at the end of the call.
    child("cluster.execute", s.end_ns - s.exec_ns, s.end_ns);
  }
}

}  // namespace

Window RunWindow(const std::vector<std::unique_ptr<Env>>& envs, uint64_t seed,
                 double seconds, SpanRecorder* spans) {
  Window window;
  std::mutex mu;
  for (size_t dataset = 0; dataset < envs.size(); ++dataset) {
    Env* env = envs[dataset].get();
    if (env->spec->use_service) StartService(env);
    const int64_t start = NowNs();
    const int64_t deadline =
        start + static_cast<int64_t>(seconds / envs.size() * 1e9);
    int64_t last_end = start;
    auto client = [&](int id) {
      std::vector<int> deck;
      for (int type = 0; type < static_cast<int>(env->spec->mix.size());
           ++type) {
        deck.insert(deck.end(), env->spec->mix[type].weight, type);
      }
      uint64_t rng = DeriveSeed(seed, 100 * (dataset + 1) + id);
      size_t next = deck.size();
      while (NowNs() < deadline) {
        if (next == deck.size()) {  // a fresh seeded shuffle per cycle
          for (size_t i = deck.size() - 1; i > 0; --i) {
            rng = DeriveSeed(rng, 3);
            std::swap(deck[i], deck[rng % (i + 1)]);
          }
          next = 0;
        }
        Sample s = RunQuery(env, deck[next++], id);
        s.dataset = static_cast<int>(dataset);
        if (spans != nullptr) RecordSpans(*env, s, spans);
        std::lock_guard<std::mutex> lock(mu);
        last_end = std::max(last_end, s.end_ns);
        window.samples.push_back(std::move(s));
      }
    };
    std::vector<std::thread> threads;
    for (int c = 1; c < env->spec->clients; ++c) {
      threads.emplace_back(client, c);
    }
    client(0);
    for (std::thread& t : threads) t.join();
    env->service.reset();
    window.span_ns += last_end - start;
  }
  return window;
}

}  // namespace perfbench
