// bgpcmp — command-line explorer for the simulated Internet.
//
//   bgpcmp topology [--seed N]                 world summary
//   bgpcmp route <ASN> [--from <ASN>]          routes toward an AS
//   bgpcmp rib <ASN> --at <ASN>                what one AS hears (Adj-RIB-in)
//   bgpcmp catchment [--preset ms|fb|goog]     anycast catchment per PoP
//   bgpcmp pops [--preset ...]                 provider PoPs and sessions
//   bgpcmp trace <ASN> <city> <city>           geographic path across one AS
//   bgpcmp lookup <ip>                         who serves this address
//   bgpcmp snapshot --out PATH                 write a serving snapshot
//   bgpcmp serve [--snapshot PATH]             resident query server
//   bgpcmp shard --shards N [--check]          streaming study across N
//                                              worker processes, merged
//                                              deterministically
//   bgpcmp experiment <name> [--days D]        one paper figure or §3
//                                              experiment (results/<name>.txt)
//
// Every subcommand accepts --threads N (or the BGPCMP_THREADS environment
// variable) to size the exec thread pool used for route warm-up.
//
// Every subcommand builds the same deterministic world the experiments use,
// so output here explains their results line by line. snapshot/serve share the
// same config flags plus --scale N (multiply all four AS-class counts) and
// --warm K (origins to warm); a world loaded with `serve --snapshot` answers
// byte-identically to one built fresh from the same flags — compare the
// --digest lines.
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/bgp/table_dump.h"
#include "bgpcmp/cdn/anycast_cdn.h"
#include "bgpcmp/core/scenario.h"
#include "bgpcmp/core/serving.h"
#include "bgpcmp/core/shard.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/latency/path_model.h"
#include "bgpcmp/netbase/parse.h"
#include "bgpcmp/stats/table.h"
#include "experiments.h"
#include "shard_util.h"

using namespace bgpcmp;

namespace {

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.starts_with("--")) {
      const std::string key = a.substr(2);
      if (i + 1 < argc && !std::string(argv[i + 1]).starts_with("--")) {
        args.flags[key] = argv[++i];
      } else {
        args.flags[key] = "";
      }
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

/// `text` as a decimal integer of type T, at least `min` (parse_number's
/// whole-string rule, so a negative value never wraps into an unsigned one).
/// Anything else names `what` (a flag such as "--limit", or "ASN") on stderr
/// and exits with status 1.
template <typename T>
T parse_int(const char* what, const std::string& text, T min = 0) {
  const auto value = parse_number<T>(text);
  if (!value || *value < min) {
    std::fprintf(stderr, "%s needs an integer in [%s, %s], got '%s'\n", what,
                 std::to_string(min).c_str(),
                 std::to_string(std::numeric_limits<T>::max()).c_str(), text.c_str());
    std::exit(1);
  }
  return *value;
}

/// `text` as a finite decimal number, at least 0 when `non_negative`. The
/// same whole-string rule and exit as parse_int: "1x", "nan" and "inf" name
/// `what` on stderr and exit with status 1.
double parse_double(const char* what, const std::string& text, bool non_negative) {
  const auto value = parse_number<double>(text);
  if (!value || (non_negative && *value < 0)) {
    std::fprintf(stderr, "%s needs a finite number%s, got '%s'\n", what,
                 non_negative ? " >= 0" : "", text.c_str());
    std::exit(1);
  }
  return *value;
}

core::ScenarioConfig preset_config(const Args& args) {
  const auto it = args.flags.find("preset");
  core::ScenarioConfig cfg;
  if (it != args.flags.end()) {
    if (it->second == "ms") cfg = core::ScenarioConfig::microsoft_like();
    if (it->second == "goog") cfg = core::ScenarioConfig::google_like();
  }
  if (const auto seed = args.flags.find("seed"); seed != args.flags.end()) {
    cfg = core::ScenarioConfig::with_master_seed(
        parse_int<std::uint64_t>("--seed", seed->second));
  }
  if (const auto scale = args.flags.find("scale"); scale != args.flags.end()) {
    const int k = parse_int("--scale", scale->second, 1);
    cfg.internet.tier1_count *= k;
    cfg.internet.transit_count *= k;
    cfg.internet.eyeball_count *= k;
    cfg.internet.stub_count *= k;
  }
  return cfg;
}

core::ServingConfig serving_config(const Args& args) {
  core::ServingConfig serving;
  if (const auto warm = args.flags.find("warm"); warm != args.flags.end()) {
    serving.warm_origins = parse_int<std::size_t>("--warm", warm->second, 1);
  }
  return serving;
}

topo::AsIndex find_asn_or_die(const topo::AsGraph& graph, const std::string& text) {
  const auto idx = graph.find_asn(Asn{parse_int<std::uint32_t>("ASN", text)});
  if (!idx) {
    std::fprintf(stderr, "no AS%s in this world\n", text.c_str());
    std::exit(1);
  }
  return *idx;
}

int cmd_topology(const core::Scenario& sc) {
  const auto& g = sc.internet.graph;
  std::printf("world: %zu ASes, %zu edges, %zu links, %zu IXPs, %zu client /24s\n",
              g.as_count(), g.edge_count(), g.link_count(), sc.internet.ixps.size(),
              sc.clients.size());
  stats::Table t{{"class", "count", "mean degree", "mean presence"}};
  for (const auto cls :
       {topo::AsClass::Tier1, topo::AsClass::Transit, topo::AsClass::Eyeball,
        topo::AsClass::Stub, topo::AsClass::Content}) {
    const auto members = g.of_class(cls);
    if (members.empty()) continue;
    double degree = 0.0;
    double presence = 0.0;
    for (const auto m : members) {
      degree += static_cast<double>(g.node(m).edges.size());
      presence += static_cast<double>(g.node(m).presence.size());
    }
    const auto n = static_cast<double>(members.size());
    t.add_row({std::string(topo::as_class_name(cls)), std::to_string(members.size()),
               stats::fmt(degree / n, 1), stats::fmt(presence / n, 1)});
  }
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_route(const core::Scenario& sc, const Args& args) {
  if (args.positional.empty()) {
    std::fputs("usage: bgpcmp route <ASN> [--from <ASN>] [--limit N]\n", stderr);
    return 1;
  }
  const auto& g = sc.internet.graph;
  const auto origin = find_asn_or_die(g, args.positional[0]);
  const auto table = bgp::compute_routes(g, origin);
  if (const auto from = args.flags.find("from"); from != args.flags.end()) {
    std::fputs((bgp::dump_route(g, table, find_asn_or_die(g, from->second)) + "\n")
                   .c_str(),
               stdout);
    return 0;
  }
  std::size_t limit = 40;
  if (const auto l = args.flags.find("limit"); l != args.flags.end()) {
    limit = parse_int<std::size_t>("--limit", l->second);
  }
  std::fputs(bgp::dump_table(g, table, limit).c_str(), stdout);
  return 0;
}

int cmd_rib(const core::Scenario& sc, const Args& args) {
  const auto at = args.flags.find("at");
  if (args.positional.empty() || at == args.flags.end()) {
    std::fputs("usage: bgpcmp rib <origin ASN> --at <viewer ASN>\n", stderr);
    return 1;
  }
  const auto& g = sc.internet.graph;
  const auto table = bgp::compute_routes(g, find_asn_or_die(g, args.positional[0]));
  std::fputs(bgp::dump_rib_in(g, table, find_asn_or_die(g, at->second)).c_str(),
             stdout);
  return 0;
}

int cmd_catchment(const core::Scenario& sc) {
  cdn::AnycastCdn cdn{&sc.internet, &sc.provider};
  const auto& db = sc.internet.city_db();
  std::map<cdn::PopId, std::pair<double, std::size_t>> per_pop;  // weight, prefixes
  double total = 0.0;
  for (traffic::PrefixId id = 0; id < sc.clients.size(); ++id) {
    const auto route = cdn.anycast_route(sc.clients.at(id));
    if (!route.valid()) continue;
    per_pop[route.pop].first += sc.clients.at(id).user_weight;
    per_pop[route.pop].second += 1;
    total += sc.clients.at(id).user_weight;
  }
  stats::Table t{{"PoP", "user share", "client /24s"}};
  for (const auto& [pop, stats_pair] : per_pop) {
    t.add_row({std::string(db.at(sc.provider.pop(pop).city).name),
               stats::fmt(100.0 * stats_pair.first / total, 1) + "%",
               std::to_string(stats_pair.second)});
  }
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_pops(const core::Scenario& sc) {
  const auto& g = sc.internet.graph;
  const auto& db = sc.internet.city_db();
  stats::Table t{{"PoP", "sessions", "PNI", "public", "transit"}};
  for (const auto& pop : sc.provider.pops()) {
    int pni = 0;
    int pub = 0;
    int transit = 0;
    for (const auto l : pop.links) {
      switch (g.link(l).kind) {
        case topo::LinkKind::PrivatePeering: ++pni; break;
        case topo::LinkKind::PublicPeering: ++pub; break;
        case topo::LinkKind::Transit: ++transit; break;
      }
    }
    t.add_row({std::string(db.at(pop.city).name), std::to_string(pop.links.size()),
               std::to_string(pni), std::to_string(pub), std::to_string(transit)});
  }
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_lookup(const core::Scenario& sc, const Args& args) {
  if (args.positional.empty()) {
    std::fputs("usage: bgpcmp lookup <ipv4 address>\n", stderr);
    return 1;
  }
  const auto addr = Ipv4Address::parse(args.positional[0]);
  if (!addr) {
    std::fputs("not an IPv4 address\n", stderr);
    return 1;
  }
  const auto map = sc.clients.prefix_map();
  const auto* hit = map.lookup(*addr);
  if (hit == nullptr) {
    std::printf("%s is not in any client prefix of this world\n",
                addr->str().c_str());
    return 0;
  }
  const auto& g = sc.internet.graph;
  const auto& db = sc.internet.city_db();
  const auto& client = sc.clients.at(*hit);
  std::printf("%s -> %s in %s (%s), origin %s (%s), user weight %.2f, "
              "last mile %.1f ms\n",
              addr->str().c_str(), client.prefix.str().c_str(),
              db.at(client.city).name.data(), db.at(client.city).country.data(),
              g.node(client.origin_as).name.c_str(),
              g.node(client.origin_as).asn.str().c_str(), client.user_weight,
              client.access.base_rtt_ms);
  const auto pop = sc.provider.serving_pop(g, db, client.origin_as, client.city);
  std::printf("served from the %s PoP\n",
              db.at(sc.provider.pop(pop).city).name.data());
  return 0;
}

int cmd_trace(const core::Scenario& sc, const Args& args) {
  if (args.positional.size() < 3) {
    std::fputs("usage: bgpcmp trace <ASN> <from-city> <to-city>\n", stderr);
    return 1;
  }
  const auto& g = sc.internet.graph;
  const auto& db = sc.internet.city_db();
  const auto as = find_asn_or_die(g, args.positional[0]);
  const auto from = db.find(args.positional[1]);
  const auto to = db.find(args.positional[2]);
  if (!from || !to) {
    std::fputs("unknown city\n", stderr);
    return 1;
  }
  if (!g.has_presence(as, *from) || !g.has_presence(as, *to)) {
    std::printf("%s has no presence at one endpoint\n", g.node(as).name.c_str());
    return 1;
  }
  const topo::AsIndex path[] = {as};
  const auto geo = lat::build_geo_path(g, db, path, *from, *to);
  std::printf("%s %s -> %s: %.0f km geodesic, %.0f km inflated, %.2f ms RTT floor\n",
              g.node(as).name.c_str(), db.at(*from).name.data(),
              db.at(*to).name.data(), geo.geo_distance().value(),
              geo.inflated_distance().value(),
              rtt_floor(geo.geo_distance(), geo.segments[0].inflation).value());
  return 0;
}

int cmd_snapshot(const Args& args) {
  const auto out = args.flags.find("out");
  if (out == args.flags.end() || out->second.empty()) {
    std::fputs("usage: bgpcmp snapshot --out PATH [--preset ms|goog] [--seed N] "
               "[--scale N] [--warm K]\n",
               stderr);
    return 1;
  }
  const auto world = core::ServingWorld::build(preset_config(args), serving_config(args));
  world->save(out->second);
  std::printf("wrote %s: %zu ASes, %zu warmed origins\n", out->second.c_str(),
              world->scenario().internet.graph.as_count(), world->warmed().size());
  return 0;
}

int cmd_serve(const Args& args) {
  const auto cfg = preset_config(args);
  std::unique_ptr<core::ServingWorld> world;
  if (const auto snap = args.flags.find("snapshot"); snap != args.flags.end()) {
    world = core::ServingWorld::load(snap->second, cfg);
  } else {
    world = core::ServingWorld::build(cfg, serving_config(args));
  }
  std::size_t count = 100;
  if (const auto q = args.flags.find("queries"); q != args.flags.end()) {
    count = parse_int<std::size_t>("--queries", q->second);
  }
  std::uint64_t qseed = 2026;
  if (const auto s = args.flags.find("qseed"); s != args.flags.end()) {
    qseed = parse_int<std::uint64_t>("--qseed", s->second);
  }
  const auto queries = world->generate_queries(count, qseed);
  const core::QueryServer server{world.get(), &exec::global_pool()};
  const auto answers = server.answer_batch(queries);
  const bool digest_only = args.flags.contains("digest");
  if (!digest_only) {
    for (const auto& a : answers) std::printf("%s\n", a.c_str());
  }
  std::printf("served=%zu warmed=%zu digest=%016llx\n", answers.size(),
              world->warmed().size(),
              static_cast<unsigned long long>(core::answers_digest(answers)));
  return 0;
}

core::ScaleStudyConfig scale_study_config(const Args& args) {
  core::ScaleStudyConfig cfg;
  if (const auto d = args.flags.find("days"); d != args.flags.end()) {
    cfg.study.days = parse_double("--days", d->second, true);
  }
  if (const auto s = args.flags.find("stride"); s != args.flags.end()) {
    cfg.study.window_stride = parse_int<int>("--stride", s->second);
  }
  if (const auto c = args.flags.find("chunk-origins"); c != args.flags.end()) {
    cfg.chunk_origins = parse_int<std::size_t>("--chunk-origins", c->second);
  }
  return cfg;
}

/// `bgpcmp shard`: the streaming Study-1 window split across worker
/// processes. Each worker owns a contiguous block of client chunks (so its
/// demand cursor skips once, then streams), writes its encoded chunk results
/// to a file, and the parent merges them back in chunk order — a result
/// byte-identical to the single-process run, which --check verifies.
int cmd_shard(const Args& args, int argc, char** argv) {
  int shards = 2;
  if (const auto s = args.flags.find("shards"); s != args.flags.end()) {
    shards = parse_int("--shards", s->second, 1);
  }
  const auto scfg = scale_study_config(args);
  double threshold = 2.0;
  if (const auto t = args.flags.find("threshold"); t != args.flags.end()) {
    threshold = parse_double("--threshold", t->second, false);
  }

  if (const auto w = args.flags.find("worker"); w != args.flags.end()) {
    const auto out = args.flags.find("out");
    const int worker = parse_int<int>("--worker", w->second);
    if (out == args.flags.end() || worker >= shards) {
      std::fputs("worker mode needs --out and a valid --worker index\n", stderr);
      return 1;
    }
    const auto world = core::ScaleWorld::make(preset_config(args));
    std::ofstream file{out->second, std::ios::binary};
    for (const auto& chunk : core::run_scale_block(
             *world, scfg, core::study_windows(scfg.study), shards, worker)) {
      file << core::encode_scale_chunk(chunk);
    }
    file.flush();
    if (!file) std::fprintf(stderr, "cannot write %s\n", out->second.c_str());
    return file ? 0 : 1;
  }

  const auto run = tools::run_shards(shards, "study", [&](int w, const std::string& out) {
    std::vector<std::string> worker_argv{tools::self_exe()};
    for (int i = 1; i < argc; ++i) worker_argv.emplace_back(argv[i]);
    worker_argv.insert(worker_argv.end(), {"--worker", std::to_string(w), "--out", out});
    return worker_argv;
  });
  if (!run.failed.empty()) return 1;
  std::string wire;
  for (const auto& text : run.outputs) wire += text;
  auto chunks = core::decode_scale_chunks(wire);
  std::size_t chunk_count = 0;
  for (const auto& chunk : chunks) {
    chunk_count = std::max(chunk_count, static_cast<std::size_t>(chunk.chunk) + 1);
  }
  const auto result = core::merge_scale_chunks(std::move(chunks), chunk_count,
                                               core::study_windows(scfg.study));
  std::printf("chunks=%zu pairs=%zu windows=%zu improvable(>=%.1fms)=%.4f "
              "fingerprint=%016llx shards=%d\n",
              result.chunks.size(), result.pair_count(), result.windows.size(),
              threshold, result.improvable_traffic_fraction(threshold),
              static_cast<unsigned long long>(result.fingerprint()), shards);

  if (args.flags.contains("check")) {
    const auto world = core::ScaleWorld::make(preset_config(args));
    const auto local = core::run_scale_study(*world, scfg);
    if (local.fingerprint() != result.fingerprint()) {
      std::fprintf(stderr, "DIVERGED: sharded %016llx != in-process %016llx\n",
                   static_cast<unsigned long long>(result.fingerprint()),
                   static_cast<unsigned long long>(local.fingerprint()));
      return 1;
    }
    std::printf("check ok: sharded run equals in-process run\n");
  }
  return 0;
}

/// `bgpcmp experiment <name> [--days D]`: one paper figure or §3 experiment,
/// printed to stdout. --days, the only flag, resizes the measurement campaign
/// of an experiment that has one.
int cmd_experiment(const Args& args) {
  const experiments::Experiment* exp = nullptr;
  if (args.positional.size() == 1) {
    for (const auto& e : experiments::registry()) {
      if (e.name == args.positional[0]) exp = &e;
    }
    if (exp == nullptr) {
      std::fprintf(stderr, "unknown experiment '%s'\n", args.positional[0].c_str());
    }
  }
  if (exp == nullptr) {
    std::fputs("usage: bgpcmp experiment <name> [--days D] [--threads N]; names:\n",
               stderr);
    for (const auto& e : experiments::registry()) {
      std::fprintf(stderr, "  %.*s%s\n", static_cast<int>(e.name.size()),
                   e.name.data(), e.takes_days ? " [--days D]" : "");
    }
    return 1;
  }
  std::optional<double> days;
  for (const auto& [flag, value] : args.flags) {
    if (flag != "days" || !exp->takes_days) {  // fig3 etc. have no campaign
      std::fprintf(stderr, "%s takes no --%s\n", args.positional[0].c_str(), flag.c_str());
      return 1;
    }
    days = parse_double("--days", value, /*non_negative=*/true);
  }
  exp->run(days);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  exec::apply_thread_flag(argc, argv);
  const Args args = parse(argc, argv);
  if (args.command.empty()) {
    std::fputs("usage: bgpcmp <topology|route|rib|catchment|pops|trace|lookup|"
               "snapshot|serve|shard|experiment> [--preset ms|goog] [--seed N] ...\n",
               stderr);
    return 1;
  }
  // snapshot/serve/shard/experiment manage their own worlds (ServingWorld,
  // possibly loaded from disk; ScaleWorld; each experiment's scenarios) —
  // don't build the explorer scenario for them.
  if (args.command == "experiment") return cmd_experiment(args);
  if (args.command == "snapshot") return cmd_snapshot(args);
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "shard") return cmd_shard(args, argc, argv);
  auto scenario = core::Scenario::make(preset_config(args));
  if (args.command == "topology") return cmd_topology(*scenario);
  if (args.command == "route") return cmd_route(*scenario, args);
  if (args.command == "rib") return cmd_rib(*scenario, args);
  if (args.command == "catchment") return cmd_catchment(*scenario);
  if (args.command == "pops") return cmd_pops(*scenario);
  if (args.command == "trace") return cmd_trace(*scenario, args);
  if (args.command == "lookup") return cmd_lookup(*scenario, args);
  std::fprintf(stderr, "unknown command '%s'\n", args.command.c_str());
  return 1;
}
