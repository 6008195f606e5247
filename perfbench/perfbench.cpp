// perfbench: the end-to-end benchmark of the compressed-AMR pipeline.
//
// One process runs one workload at one seed and writes every raw sample
// it measured to a JSON file; perfbench/run.py reduces the samples to
// the metrics named in BENCHMARK.json. The library is driven only through
// its public API and every layer is timed from outside, around the calls.
//
// Each run measures the paper's three user-visible operations, as three
// phases:
//
//   archive      compress_hierarchy with sz-lr and sz-interp (REL 1e-3,
//                mean-fill) of a Nyx-like 256^3 two-level hierarchy, then
//                decompress_hierarchy; every decoded cell is checked
//                against abs_eb. Codec-bound: no cache, no vis.
//   contour      streamed (amr_isosurface_streamed) and full-inflate
//                (decompress_hierarchy + amr_isosurface) extraction of the
//                quarter-scale WarpX-like and Nyx-like hierarchies with all
//                three VisMethods; the two meshes must be bit-identical.
//                Vis-bound: no shared cache.
//   interactive  two closed-loop clients probing the archive stored as
//                chunked-sz-lr@16x16x16 through one QueryService with a
//                16 MiB cache; a seeded subset of responses is replayed
//                through the uncached primitives and must match bit for
//                bit. Decode-, cache- and service-bound: no vis.
//
// The workload named on the command line (contour or interactive) gives
// its phase the measured --seconds; the other phases, archive always among
// them, run a fixed quota so that every run reports every end-to-end
// metric. The phases' steps are interleaved over the pass (see run_pass).
//
// Seeding: the datasets are the library's canonical ones (generation seed
// 42), so that seed-to-seed spread measures the program rather than the
// random field's realization (the Nyx-like ratio alone moves ~20% between
// realizations). --seed drives everything the workloads randomize: the
// interactive hot spots, request streams and replayed subset, and the
// order of codecs, datasets and methods inside each archive and contour
// round, so that no fixed order biases the timings.
//
// With --trace 1 the measured phases run twice: untraced, then traced
// (spans recorded around each public call, codec calls timed through a
// forwarding Compressor, the re-sampling pipeline rebuilt from its public
// parts). The per-layer samples come from the traced pass; the untraced
// pass gives the baseline for the tracing overhead.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "amr/sampling.hpp"
#include "compress/amr_compress.hpp"
#include "core/datasets.hpp"
#include "trace.hpp"
#include "service/query_service.hpp"
#include "util/fault.hpp"
#include "vis/amr_iso.hpp"
#include "vis/isosurface.hpp"
#include "vis/resample.hpp"

namespace {

using namespace amrvis;
using perfbench::Clock;
using perfbench::ms_between;
using perfbench::Span;

constexpr double kRelEb = 1e-3;
// Under mean-fill the covered coarse cells are rebuilt by averaging
// decoded fine cells, which may exceed abs_eb by rounding; the slack is
// the one the repository's own round-trip tests allow.
constexpr double kEbSlack = 1.0000001;
constexpr int kSetupRepeats = 3;
constexpr int kClients = 2;
constexpr std::size_t kCacheBytes = std::size_t{16} << 20;
constexpr double kSliceSeconds = 0.5;  ///< one interactive step
constexpr std::uint64_t kDataSeed = 42;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Small seeded generator (a UniformRandomBitGenerator).
class Rng {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Rng(std::uint64_t seed) : state_(splitmix64(seed)) {}
  std::uint64_t next() { return state_ = splitmix64(state_); }
  result_type operator()() { return next(); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

// ------------------------------------------------------------- results

/// Raw samples of one metric; run.py reduces them by `stat`.
struct Series {
  std::string unit;
  std::string stat;  ///< "median" or "p90"
  std::vector<double> samples;
};
using SeriesMap = std::map<std::string, Series>;

void add(SeriesMap& m, const std::string& name, const char* unit, double v,
         const char* stat = "median") {
  Series& s = m[name];
  s.unit = unit;
  s.stat = stat;
  s.samples.push_back(v);
}

/// Operations attempted and failed. Any exception, failed Outcome, error
/// bound violation, mesh mismatch or replay mismatch is a failed op.
class Ops {
 public:
  void attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void fail(const std::string& what) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu_);
    if (errors_.size() < 32) errors_.push_back(what);
  }
  [[nodiscard]] std::int64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::int64_t failed() const { return failed_.load(); }
  [[nodiscard]] std::vector<std::string> errors() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return errors_;
  }

 private:
  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> errors_;  ///< guarded by mu_
};

/// One measured pass over the three phases.
struct Pass {
  bool traced = false;
  SeriesMap e2e;
  SeriesMap layer;  ///< filled by the traced pass only
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string error_text(const std::string& what, const std::exception& e) {
  return what + ": " + e.what();
}

// ------------------------------------------------------------- archive

/// Forwards to a codec and times every call: the codec layer's share of
/// a hierarchy call, seen from outside the library. Output is identical
/// to the wrapped codec's (name() included, so blobs and containers match).
class TimedCodec final : public compress::Compressor {
 public:
  explicit TimedCodec(const compress::Compressor& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] Bytes compress(View3<const double> data,
                               double abs_eb) const override {
    Span s("compress.codec.compress");
    Bytes out = inner_.compress(data, abs_eb);
    account(s);
    return out;
  }
  [[nodiscard]] Array3<double> decompress(
      std::span<const std::uint8_t> blob) const override {
    Span s("compress.codec.decompress");
    Array3<double> out = inner_.decompress(blob);
    account(s);
    return out;
  }

  /// Wall milliseconds of [lo, hi] during which at least one codec call
  /// ran, over the calls since the last take. The library calls the codec
  /// from several threads at once, so this is the union of the calls'
  /// intervals, not their sum: the hierarchy call's duration minus it is
  /// the time no codec call was running.
  double take_covered_ms(Clock::time_point lo, Clock::time_point hi) {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> calls;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      calls.swap(calls_);
    }
    std::sort(calls.begin(), calls.end());
    double covered = 0.0;
    Clock::time_point reach = lo;
    for (const auto& [start, end] : calls) {
      const Clock::time_point a = std::max(start, reach);
      const Clock::time_point b = std::min(end, hi);
      if (b > a) {
        covered += ms_between(a, b);
        reach = b;
      }
    }
    return covered;
  }

 private:
  void account(Span& s) const {
    s.stop_ms();
    const std::lock_guard<std::mutex> lock(mu_);
    calls_.emplace_back(s.start(), s.end());
  }

  const compress::Compressor& inner_;
  mutable std::mutex mu_;
  /// Start and end of each codec call since the last take; guarded by mu_.
  mutable std::vector<std::pair<Clock::time_point, Clock::time_point>> calls_;
};

/// Largest |decoded - original| over abs_eb, plus the squared error sum
/// for PSNR, over every stored cell of the hierarchy.
struct ErrorScan {
  double worst = 0.0;
  double sq = 0.0;
  std::int64_t cells = 0;
};

ErrorScan scan_errors(const amr::AmrHierarchy& orig,
                      const amr::AmrHierarchy& dec, double abs_eb) {
  ErrorScan e;
  if (orig.num_levels() != dec.num_levels()) {
    e.worst = INFINITY;
    return e;
  }
  for (int l = 0; l < orig.num_levels(); ++l) {
    const auto& a = orig.level(l).fabs;
    const auto& b = dec.level(l).fabs;
    if (a.size() != b.size()) {
      e.worst = INFINITY;
      return e;
    }
    for (std::size_t p = 0; p < a.size(); ++p) {
      const auto va = a[p].values();
      const auto vb = b[p].values();
      if (va.size() != vb.size()) {
        e.worst = INFINITY;
        return e;
      }
      for (std::size_t i = 0; i < va.size(); ++i) {
        const double d = std::abs(vb[i] - va[i]);
        e.worst = std::isnan(d) ? INFINITY : std::max(e.worst, d / abs_eb);
        e.sq += d * d;
      }
      e.cells += static_cast<std::int64_t>(va.size());
    }
  }
  return e;
}

class ArchivePhase {
 public:
  ArchivePhase(const amr::AmrHierarchy& hier, std::uint64_t seed)
      : hier_(&hier), order_(seed ^ 0xa5) {
    for (const char* name : {"sz-lr", "sz-interp"})
      codecs_.emplace_back(name, compress::make_compressor(name));
    range_ = compress::hierarchy_min_max(hier).range();
  }

  void round(Ops& ops, Pass& pass) {
    double orig = 0, stored = 0, comp_ms = 0, dec_ms = 0, sq = 0;
    std::int64_t cells = 0;
    bool complete = true;
    std::shuffle(codecs_.begin(), codecs_.end(), order_);
    for (auto& [name, codec] : codecs_) {
      TimedCodec timed(*codec);
      const compress::Compressor& use =
          pass.traced ? static_cast<const compress::Compressor&>(timed)
                      : *codec;
      compress::AmrCompressed cz;
      std::pair<Clock::time_point, Clock::time_point> window;
      ops.attempt();
      try {
        Span s("compress.amr.compress_hierarchy");
        cz = compress::compress_hierarchy(*hier_, use, kRelEb,
                                          compress::RedundantHandling::kMeanFill);
        const double ms = s.stop_ms();
        window = {s.start(), s.end()};
        comp_ms += ms;
        if (pass.traced)
          add(pass.layer, "compress.amr.compress_ms." + name, "ms", ms);
      } catch (const std::exception& e) {
        ops.fail(error_text("archive compress " + name, e));
        complete = false;
        continue;
      }
      if (pass.traced) {
        add(pass.layer, "compress.codec.compress_ms." + name, "ms",
            timed.take_covered_ms(window.first, window.second));
        add(pass.layer, "compress.codec.bytes_out." + name, "bytes",
            static_cast<double>(cz.compressed_bytes()));
      }
      ops.attempt();
      try {
        Span s("compress.amr.decompress_hierarchy");
        const amr::AmrHierarchy dec = compress::decompress_hierarchy(cz, use);
        const double ms = s.stop_ms();
        dec_ms += ms;
        if (pass.traced) {
          add(pass.layer, "compress.amr.decompress_ms." + name, "ms", ms);
          add(pass.layer, "compress.codec.decompress_ms." + name, "ms",
              timed.take_covered_ms(s.start(), s.end()));
        }
        const ErrorScan err = scan_errors(*hier_, dec, cz.abs_eb);
        if (!(err.worst <= kEbSlack)) {
          ops.fail("archive " + name + ": decoded cell exceeds abs_eb by " +
                   std::to_string(err.worst) + "x");
          complete = false;
        }
        sq += err.sq;
        cells += err.cells;
      } catch (const std::exception& e) {
        ops.fail(error_text("archive decompress " + name, e));
        complete = false;
        continue;
      }
      orig += static_cast<double>(cz.original_bytes());
      stored += static_cast<double>(cz.compressed_bytes());
    }
    if (!complete) return;
    add(pass.e2e, "compress_mb_s", "MB/s", orig / comp_ms * 1e-3);
    add(pass.e2e, "decompress_mb_s", "MB/s", orig / dec_ms * 1e-3);
    if (!pass.e2e.count("ratio")) {
      // Deterministic: reported once per pass.
      add(pass.e2e, "ratio", "ratio", orig / stored);
      add(pass.e2e, "psnr_db", "dB",
          20.0 * std::log10(range_) -
              10.0 * std::log10(sq / static_cast<double>(cells)));
    }
  }

 private:
  const amr::AmrHierarchy* hier_;
  std::vector<std::pair<std::string, std::unique_ptr<compress::Compressor>>>
      codecs_;
  double range_ = 0.0;
  Rng order_;
};

// ------------------------------------------------------------- contour

struct MethodName {
  vis::VisMethod method;
  const char* name;
};
const MethodName kMethods[] = {
    {vis::VisMethod::kResampling, "resampling"},
    {vis::VisMethod::kDualCell, "dualcell"},
    {vis::VisMethod::kDualCellSwitching, "switching"},
};

bool same_mesh(const vis::TriMesh& a, const vis::TriMesh& b) {
  if (a.vertices.size() != b.vertices.size() ||
      a.triangles.size() != b.triangles.size())
    return false;
  if (!a.vertices.empty() &&
      std::memcmp(a.vertices.data(), b.vertices.data(),
                  a.vertices.size() * sizeof(vis::Vec3)) != 0)
    return false;
  for (std::size_t t = 0; t < a.triangles.size(); ++t)
    if (a.triangles[t].v != b.triangles[t].v ||
        a.triangles[t].level != b.triangles[t].level)
      return false;
  return true;
}

/// The re-sampling pipeline rebuilt from its public parts, each part
/// timed on its own: the vis kernel's layers inside amr_isosurface.
vis::TriMesh rebuilt_resampling(const amr::AmrHierarchy& h, double iso,
                                const std::string& ds, SeriesMap& layer) {
  double resample_ms = 0, march_ms = 0, append_ms = 0;
  Span raster("vis.rasterize");
  const std::vector<vis::LevelField> fields = vis::rasterize_levels(h);
  const double raster_ms = raster.stop_ms();
  vis::TriMesh mesh;
  for (int l = 0; l < h.num_levels(); ++l) {
    const vis::LevelField& lf = fields[static_cast<std::size_t>(l)];
    Array3<std::uint8_t> vertex_valid;
    Span rs("vis.resample");
    const Array3<double> verts = vis::resample_to_vertices_masked(
        lf.values.view(), lf.uncovered.view(), vertex_valid);
    resample_ms += rs.stop_ms();
    const vis::GridTransform tf{vis::Vec3{0, 0, 0},
                                static_cast<double>(lf.cell_size)};
    Span mc("vis.march");
    const vis::TriMesh level_mesh = vis::extract_isosurface(
        verts.view(), iso, tf, l, lf.uncovered.view());
    march_ms += mc.stop_ms();
    Span ap("vis.mesh_append");
    mesh.append(level_mesh);
    append_ms += ap.stop_ms();
  }
  add(layer, "vis.rasterize_ms." + ds, "ms", raster_ms);
  add(layer, "vis.resample_ms." + ds, "ms", resample_ms);
  add(layer, "vis.march_ms." + ds, "ms", march_ms);
  add(layer, "vis.mesh_append_ms." + ds, "ms", append_ms);
  return mesh;
}

struct ContourSet {
  std::string name;
  compress::AmrCompressed cz;
  double iso = 0.0;
  double fine_cells = 0.0;  ///< finest-level domain cells
};

class ContourPhase {
 public:
  explicit ContourPhase(std::uint64_t seed)
      : codec_(compress::make_compressor("sz-lr")),
        methods_(std::begin(kMethods), std::end(kMethods)),
        order_(seed ^ 0xc0) {
    for (const char* name : {"warpx", "nyx"}) {
      const core::DatasetSpec spec =
          core::dataset_spec(name, false, kDataSeed);
      sim::SyntheticDataset ds = core::make_dataset(spec);
      ContourSet set;
      set.name = name;
      set.iso = core::pick_iso_value(spec, ds.fine_truth);
      set.fine_cells = static_cast<double>(spec.fine_shape.size());
      set.cz = compress::compress_hierarchy(
          ds.hierarchy, *codec_, kRelEb, compress::RedundantHandling::kMeanFill);
      sets_.push_back(std::move(set));
    }
  }

  void round(Ops& ops, Pass& pass) {
    double stream_ms = 0, inflate_ms = 0, cells = 0;
    bool complete = true;
    std::shuffle(sets_.begin(), sets_.end(), order_);
    for (const ContourSet& set : sets_) {
      amr::AmrHierarchy h;
      ops.attempt();
      try {
        Span s("compress.amr.decompress_hierarchy");
        h = compress::decompress_hierarchy(set.cz, *codec_);
        const double ms = s.stop_ms();
        inflate_ms += ms;
        if (pass.traced)
          add(pass.layer, "compress.amr.decompress_ms." + set.name, "ms", ms);
      } catch (const std::exception& e) {
        ops.fail(error_text("contour decompress " + set.name, e));
        complete = false;
        continue;
      }
      vis::TriMesh resampling_mesh;
      std::shuffle(methods_.begin(), methods_.end(), order_);
      for (const auto& [method, mname] : methods_) {
        const std::string key = set.name + "." + mname;
        ops.attempt();
        try {
          vis::StreamedIsoStats st;
          Span ss("compress.tile_stream.iso");
          const vis::TriMesh streamed = vis::amr_isosurface_streamed(
              set.cz, *codec_, set.iso, method, {}, &st);
          const double s_ms = ss.stop_ms();
          Span is("vis.amr_isosurface");
          vis::TriMesh inflated = vis::amr_isosurface(h, set.iso, method);
          const double i_ms = is.stop_ms();
          stream_ms += s_ms;
          inflate_ms += i_ms;
          cells += set.fine_cells;
          if (!same_mesh(streamed, inflated)) {
            ops.fail("contour " + key + ": streamed mesh differs");
            complete = false;
          }
          if (pass.traced) {
            add_stream_stats(pass.layer, key, st);
            add(pass.layer, "compress.tile_stream.iso_ms." + key, "ms", s_ms);
            add(pass.layer, "vis.amr_isosurface_ms." + key, "ms", i_ms);
            if (method == vis::VisMethod::kResampling)
              resampling_mesh = std::move(inflated);
          }
        } catch (const std::exception& e) {
          ops.fail(error_text("contour " + key, e));
          complete = false;
        }
      }
      if (pass.traced) traced_extras(ops, pass, set, h, resampling_mesh);
    }
    if (!complete) return;
    add(pass.e2e, "iso_mcells_s", "Mcells/s", cells / stream_ms * 1e-3);
    add(pass.e2e, "inflate_iso_mcells_s", "Mcells/s",
        cells / inflate_ms * 1e-3);
  }

 private:
  static void add_stream_stats(SeriesMap& layer, const std::string& key,
                               const vis::StreamedIsoStats& st) {
    const std::string p = "compress.tile_stream.";
    add(layer, p + "tiles_decoded." + key, "count",
        static_cast<double>(st.tiles_decoded));
    add(layer, p + "cache_hits." + key, "count",
        static_cast<double>(st.cache_hits));
    add(layer, p + "tiles_culled." + key, "count",
        static_cast<double>(st.tiles_culled_exact +
                            st.tiles_culled_conservative));
    add(layer, p + "decode_amplification." + key, "ratio",
        st.tiles_total > 0 ? static_cast<double>(st.tiles_decoded) /
                                 static_cast<double>(st.tiles_total)
                           : 0.0);
    add(layer, p + "peak_live_mb." + key, "MB",
        static_cast<double>(st.peak_live_bytes) * 1e-6);
  }

  /// Traced pass only: the rebuilt re-sampling pipeline (checked against
  /// amr_isosurface) and a decode-only tile pass.
  void traced_extras(Ops& ops, Pass& pass, const ContourSet& set,
                     const amr::AmrHierarchy& h,
                     const vis::TriMesh& resampling_mesh) {
    ops.attempt();
    try {
      const vis::TriMesh rebuilt =
          rebuilt_resampling(h, set.iso, set.name, pass.layer);
      if (!same_mesh(rebuilt, resampling_mesh))
        ops.fail("contour " + set.name + ": rebuilt re-sampling mesh differs");
    } catch (const std::exception& e) {
      ops.fail(error_text("contour rebuild " + set.name, e));
    }
    ops.attempt();
    try {
      Span s("compress.chunked.tile_decode");
      amr::for_each_tile_compressed(set.cz, *codec_, [](amr::HierTile&&) {});
      add(pass.layer, "compress.chunked.tile_decode_ms." + set.name, "ms",
          s.stop_ms());
    } catch (const std::exception& e) {
      ops.fail(error_text("contour tile decode " + set.name, e));
    }
  }

  std::unique_ptr<compress::Compressor> codec_;
  std::vector<ContourSet> sets_;
  std::vector<MethodName> methods_;
  Rng order_;
};

// --------------------------------------------------------- interactive

enum Kind { kPoint = 0, kPlane = 1, kRegion = 2 };
constexpr const char* kKindNames[] = {"point", "plane", "region"};
constexpr const char* kKindSpans[] = {"service.request.point",
                                      "service.request.plane",
                                      "service.request.region"};
constexpr const char* kReplaySpans[] = {"amr.sampling.point_uncached",
                                        "amr.sampling.plane_uncached",
                                        "amr.sampling.region_uncached"};
// Replay sampling: chance a response is kept for replay, and the cap
// per client, kind and 0.5 s slice, so the replayed share of the
// responses stays the same however long the phase runs.
constexpr double kReplayChance[] = {1.0 / 256, 1.0 / 32, 1.0 / 64};
constexpr std::size_t kReplayCap[] = {100, 8, 25};

struct RequestSample {
  Kind kind;
  double client_ms;   ///< client-observed latency
  double service_ms;  ///< QueryStats::service_ms
};

struct Kept {
  Kind kind;
  std::uint64_t id;
  service::Request request;
  service::Response response;
};

bool same_array(const Array3<double>& a, const Array3<double>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

class InteractivePhase {
 public:
  InteractivePhase(const amr::AmrHierarchy& hier, std::uint64_t seed)
      : codec_(compress::make_compressor("chunked-sz-lr@16x16x16")),
        cz_(compress::compress_hierarchy(hier, *codec_, kRelEb,
                                         compress::RedundantHandling::kMeanFill)),
        seed_(seed) {
    service::ServiceOptions opt;
    opt.cache_bytes = kCacheBytes;
    svc_ = std::make_unique<service::QueryService>(cz_, *codec_, opt);
    fine_ = cz_.domains.back().shape();
    coarse_ = cz_.domains.front().shape();
  }

  /// Starts a pass: clears the samples and snapshots the counters.
  void begin() {
    samples_.clear();
    kept_.clear();
    qps_.clear();
    before_ = svc_->counters();
    cache_before_ = svc_->cache().counters();
  }

  /// Runs the closed loop for `seconds`: one qps sample per slice.
  void slice(Ops& ops, double seconds) {
    std::vector<std::vector<RequestSample>> samples(kClients);
    std::vector<std::vector<Kept>> kept(kClients);
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        try {
          client(c, ops, deadline, samples[static_cast<std::size_t>(c)],
                 kept[static_cast<std::size_t>(c)]);
        } catch (const std::exception& e) {
          ops.fail(error_text("interactive client", e));
        }
      });
    for (auto& t : clients) t.join();
    const double wall_ms = ms_between(t0, Clock::now());
    ++slices_;
    std::size_t completed = 0;
    for (int c = 0; c < kClients; ++c) {
      auto& done = samples[static_cast<std::size_t>(c)];
      completed += done.size();
      samples_.insert(samples_.end(), done.begin(), done.end());
      for (Kept& k : kept[static_cast<std::size_t>(c)])
        kept_.push_back(std::move(k));
    }
    qps_.push_back(static_cast<double>(completed) / (wall_ms * 1e-3));
  }

  /// Ends a pass: replays the kept responses through the uncached
  /// primitives and records the pass's samples.
  void finish(Ops& ops, Pass& pass) {
    std::vector<double> uncached[3];
    for (const Kept& k : kept_) replay(ops, k, uncached[k.kind]);

    for (const double q : qps_) add(pass.e2e, "query_qps", "queries/s", q);
    for (const RequestSample& s : samples_) {
      const std::string kind = kKindNames[s.kind];
      add(pass.e2e, kind + "_p50_ms", "ms", s.client_ms);
      add(pass.e2e, kind + "_p90_ms", "ms", s.client_ms, "p90");
      if (pass.traced) {
        add(pass.layer, "service.service_ms_p50." + kind, "ms", s.service_ms);
        add(pass.layer, "service.dispatch_ms." + kind, "ms",
            s.client_ms - s.service_ms);
      }
    }
    if (!pass.traced) return;
    for (int k = 0; k < 3; ++k)
      for (const double ms : uncached[k])
        add(pass.layer, std::string("amr.sampling.uncached_ms.") + kKindNames[k],
            "ms", ms);
    const auto after = svc_->counters();
    const auto cache_after = svc_->cache().counters();
    const double hits =
        static_cast<double>(cache_after.hits - cache_before_.hits);
    const double misses =
        static_cast<double>(cache_after.misses - cache_before_.misses);
    add(pass.layer, "compress.tile_cache.hit_ratio", "ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0);
    add(pass.layer, "compress.tile_cache.evictions", "count",
        static_cast<double>(cache_after.evictions - cache_before_.evictions));
    add(pass.layer, "compress.tile_cache.peak_mb", "MB",
        static_cast<double>(cache_after.peak_bytes) * 1e-6);
    add(pass.layer, "service.tiles_decoded", "count",
        static_cast<double>(after.tiles_decoded - before_.tiles_decoded));
    add(pass.layer, "service.failures", "count",
        static_cast<double>(after.failures - before_.failures));
    add(pass.layer, "service.retries", "count",
        static_cast<double>(after.retries - before_.retries));
  }

 private:
  /// One closed-loop client: next request as soon as the last returns.
  /// About 80% point probes in the client's own hot set, 10% z-plane
  /// slices and 10% level-0 regions of (n/8)^3. The hot set is kHotTiles
  /// level-1 tiles, each one tile-aligned 16^3 box of a seeded fine patch
  /// (fine patches sit on the 16-cell tagging grid): 256 KiB that stays
  /// cached, spread over several patches so that the point latency does
  /// not hinge on where one seeded patch sits in the level.
  void client(int c, Ops& ops, Clock::time_point deadline,
              std::vector<RequestSample>& out, std::vector<Kept>& kept) {
    constexpr int kHotTiles = 8;
    constexpr std::int64_t kTile = 16;
    const std::uint64_t client_seed =
        seed_ ^ (0x1000u * static_cast<std::uint64_t>(c + 1));
    Rng rng(client_seed ^ (static_cast<std::uint64_t>(slices_) << 40));
    Rng hot(client_seed);
    const auto& patches = cz_.boxes.back();
    std::vector<amr::IntVect> spots;
    for (int h = 0; h < kHotTiles; ++h) {
      const amr::Box& patch = patches[static_cast<std::size_t>(
          hot.below(static_cast<std::int64_t>(patches.size())))];
      auto tile_index = [&](std::int64_t extent) {
        return hot.below(std::max<std::int64_t>(1, extent / kTile)) * kTile;
      };
      const amr::IntVect size = patch.size();
      spots.push_back(patch.lo() + amr::IntVect{tile_index(size.x),
                                                tile_index(size.y),
                                                tile_index(size.z)});
    }
    const std::int64_t roi = coarse_.nx / 8;
    std::size_t kept_count[3] = {0, 0, 0};
    while (Clock::now() < deadline) {
      service::Request req;
      Kind kind;
      const double u = rng.uniform();
      if (u < 0.8) {
        kind = kPoint;
        const amr::IntVect& spot =
            spots[static_cast<std::size_t>(rng.below(kHotTiles))];
        req = service::Request::Point(
            spot + amr::IntVect{rng.below(kTile), rng.below(kTile),
                                rng.below(kTile)});
      } else if (u < 0.9) {
        kind = kPlane;
        req = service::Request::Plane(2, rng.below(fine_.nz));
      } else {
        kind = kRegion;
        const amr::IntVect lo{rng.below(coarse_.nx - roi + 1),
                              rng.below(coarse_.ny - roi + 1),
                              rng.below(coarse_.nz - roi + 1)};
        req = service::Request::Region(
            0, amr::Box(lo, lo + amr::IntVect::uniform(roi - 1)));
      }
      const std::uint64_t id = next_request_.fetch_add(1) + 1;
      ops.attempt();
      Span span(kKindSpans[kind], id);
      service::Response resp = svc_->execute_full(req);
      const double client_ms = span.stop_ms();
      if (!resp.outcome.ok() || resp.outcome.degraded()) {
        ops.fail(std::string(kKindNames[kind]) + " request: " +
                 resp.outcome.message);
        continue;
      }
      out.push_back({kind, client_ms, resp.stats.service_ms});
      if (kept_count[kind] < kReplayCap[kind] &&
          rng.uniform() < kReplayChance[kind]) {
        ++kept_count[kind];
        kept.push_back({kind, id, std::move(req), std::move(resp)});
      }
    }
  }

  void replay(Ops& ops, const Kept& k, std::vector<double>& ms_out) {
    ops.attempt();
    try {
      Span s(kReplaySpans[k.kind], k.id);
      bool same = false;
      if (k.kind == kPoint) {
        const double v =
            amr::sample_point_compressed(cz_, *codec_, k.request.point);
        same = std::memcmp(&v, &k.response.value, sizeof v) == 0;
      } else if (k.kind == kPlane) {
        const Array3<double> slice = amr::sample_plane_compressed(
            cz_, *codec_, k.request.axis, k.request.plane_index);
        same = same_array(slice, k.response.slice);
      } else {
        const auto patches = compress::decompress_level_region(
            cz_, *codec_, k.request.level, k.request.region);
        same = patches.size() == k.response.patches.size();
        for (std::size_t i = 0; same && i < patches.size(); ++i) {
          const auto& a = patches[i];
          const auto& b = k.response.patches[i];
          same = a.patch == b.patch && a.box == b.box &&
                 same_array(a.data, b.data);
        }
      }
      ms_out.push_back(s.stop_ms());
      if (!same)
        ops.fail(std::string("replay ") + kKindNames[k.kind] + " request " +
                 std::to_string(k.id) + " differs from the uncached read");
    } catch (const std::exception& e) {
      ops.fail(error_text(std::string("replay ") + kKindNames[k.kind], e));
    }
  }

  std::unique_ptr<compress::Compressor> codec_;
  compress::AmrCompressed cz_;
  std::unique_ptr<service::QueryService> svc_;
  std::uint64_t seed_;
  Shape3 fine_, coarse_;
  int slices_ = 0;
  std::atomic<std::uint64_t> next_request_{0};
  // Samples of the current pass.
  std::vector<RequestSample> samples_;
  std::vector<Kept> kept_;
  std::vector<double> qps_;
  service::QueryService::Counters before_;
  compress::TileCache::Counters cache_before_;
};

// ----------------------------------------------------------- set-up

/// Everything the three phases read.
struct Inputs {
  amr::AmrHierarchy archive;  ///< Nyx-like, 256^3 fine grid
  std::unique_ptr<ContourPhase> contour;
  std::unique_ptr<InteractivePhase> interactive;
};

std::unique_ptr<Inputs> set_up(std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  core::DatasetSpec spec = core::nyx_spec(false, kDataSeed);
  spec.fine_shape = {256, 256, 256};
  in->archive = core::make_dataset(spec).hierarchy;
  in->contour = std::make_unique<ContourPhase>(seed);
  in->interactive = std::make_unique<InteractivePhase>(in->archive, seed);
  return in;
}

// -------------------------------------------------------------- output

void write_series(std::FILE* f, const SeriesMap& m) {
  std::fputs("{", f);
  bool first = true;
  for (const auto& [name, s] : m) {
    std::fprintf(f, "%s\n  \"%s\": {\"unit\": \"%s\", \"stat\": \"%s\", "
                    "\"samples\": [",
                 first ? "" : ",", name.c_str(), s.unit.c_str(),
                 s.stat.c_str());
    for (std::size_t i = 0; i < s.samples.size(); ++i)
      std::fprintf(f, "%s%.17g", i == 0 ? "" : ",", s.samples[i]);
    std::fputs("]}", f);
    first = false;
  }
  std::fputs("}", f);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  return (argc % 2 == 1) && !a.out.empty() &&
         (a.workload == "contour" || a.workload == "interactive") &&
         a.seconds > 0 && (!a.trace || !a.trace_out.empty());
}

/// One measured pass. The phases advance in steps (an interactive slice,
/// an archive round, a contour round), interleaved: each step goes to the
/// unfinished phase that has used the smallest share of its time budget,
/// so each phase's samples spread over the whole pass and a slow spell of
/// a shared machine lands on a few steps of every phase rather than on all
/// of one. The named workload's phase has a budget of --seconds, the
/// others a fixed one; a phase is finished once it has used its budget
/// and run its minimum number of steps.
void run_pass(const Args& args, Inputs& in, ArchivePhase& archive, Ops& ops,
              Pass& pass) {
  struct Phase {
    const char* name;
    const char* span;
    double budget_ms;
    int min_steps;
    std::function<void()> step;
    int steps = 0;
    double wall_ms = 0.0;
    double cpu_s = 0.0;

    [[nodiscard]] double share() const { return wall_ms / budget_ms; }
    [[nodiscard]] bool finished() const {
      return steps >= min_steps && wall_ms >= budget_ms;
    }
  };
  InteractivePhase& interactive = *in.interactive;
  Phase phases[] = {
      {"interactive", "bench.phase.interactive", 9e3, 18,
       [&] { interactive.slice(ops, kSliceSeconds); }},
      {"archive", "bench.phase.archive", 6e3, 15,
       [&] { archive.round(ops, pass); }},
      {"contour", "bench.phase.contour", 7e3, 6,
       [&] { in.contour->round(ops, pass); }},
  };
  for (Phase& p : phases)
    if (args.workload == p.name) p.budget_ms = args.seconds * 1e3;
  interactive.begin();
  for (;;) {
    Phase* next = nullptr;
    for (Phase& p : phases)
      if (!p.finished() && (next == nullptr || p.share() < next->share()))
        next = &p;
    if (next == nullptr) break;
    const double cpu0 = cpu_seconds();
    Span s(next->span);
    next->step();
    next->wall_ms += s.stop_ms();
    next->cpu_s += cpu_seconds() - cpu0;
    ++next->steps;
  }
  if (pass.traced)
    for (const Phase& p : phases)
      add(pass.layer, std::string("util.parallel.cpu_per_wall.") + p.name,
          "ratio", p.cpu_s / (p.wall_ms * 1e-3));
  interactive.finish(ops, pass);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload contour|interactive "
                 "--seed N --seconds S --trace 0|1 --out RAW.json "
                 "[--trace-out TRACE.json]\n");
    return 2;
  }
  // Same policy as bench_service: armed fault plans or library tracing
  // would make every number meaningless.
  const char* lib_trace = std::getenv("AMRVIS_TRACE");
  if (amrvis::fault::enabled() || (lib_trace != nullptr && *lib_trace)) {
    std::fprintf(stderr,
                 "FATAL: AMRVIS_FAULT_SPEC or AMRVIS_TRACE is armed; "
                 "benchmark numbers would be meaningless\n");
    return 2;
  }

  // Client threads plus pool workers = nproc, so the closed loop does not
  // oversubscribe the machine: with 2 clients and 4 workers on 4 vCPUs the
  // plane latency flipped between about 6.5 and 16 ms from run to run.
  // Set before the service creates the process-wide pool.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::string pool_threads = std::to_string(
      std::max<int>(1, static_cast<int>(hw) - kClients));
  setenv("AMRVIS_POOL_THREADS", pool_threads.c_str(), 1);

  Ops ops;
  std::vector<double> setup_ms;
  std::unique_ptr<Inputs> in;
  for (int r = 0; r < kSetupRepeats; ++r) {
    in.reset();
    const auto t0 = Clock::now();
    in = set_up(args.seed);
    setup_ms.push_back(ms_between(t0, Clock::now()));
  }
  ArchivePhase archive(in->archive, args.seed);

  // Warm-up: one round of each phase, checked but not measured.
  const auto w0 = Clock::now();
  {
    Pass warm;
    archive.round(ops, warm);
    in->contour->round(ops, warm);
    in->interactive->begin();
    in->interactive->slice(ops, kSliceSeconds);
  }
  const double warm_ms = ms_between(w0, Clock::now());

  Pass untraced;
  run_pass(args, *in, archive, ops, untraced);
  Pass traced;
  traced.traced = true;
  if (args.trace) {
    perfbench::Recorder::instance().arm();
    Span root("bench.run");
    run_pass(args, *in, archive, ops, traced);
  }
  for (const double ms : setup_ms)
    add(untraced.e2e, "setup_s", "s", (ms + warm_ms) * 1e-3);
  add(untraced.e2e, "peak_rss_mb", "MB", peak_rss_mb());

  if (args.trace &&
      !perfbench::Recorder::instance().write_chrome_trace(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(f, "{\"attempted\": %lld, \"failed\": %lld, \"errors\": [",
               static_cast<long long>(ops.attempted()),
               static_cast<long long>(ops.failed()));
  const auto errors = ops.errors();
  for (std::size_t i = 0; i < errors.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                 json_escape(errors[i]).c_str());
  std::fputs("],\n\"e2e\": ", f);
  write_series(f, untraced.e2e);
  if (args.trace) {
    std::fputs(",\n\"e2e_traced\": ", f);
    write_series(f, traced.e2e);
    std::fputs(",\n\"layer\": ", f);
    write_series(f, traced.layer);
  }
  std::fputs("}\n", f);
  return std::fclose(f) == 0 ? 0 : 1;
}
