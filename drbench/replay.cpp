#include "replay.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "common/hash.hpp"
#include "container/grib_lite.hpp"
#include "core/checkpoint.hpp"
#include "core/quality.hpp"
#include "core/readiness.hpp"
#include "graph/encode.hpp"
#include "grid/latlon.hpp"
#include "ndarray/kernels.hpp"
#include "privacy/anonymize.hpp"
#include "privacy/tabular.hpp"
#include "shard/shard_reader.hpp"
#include "shard/shard_writer.hpp"
#include "stats/normalizer.hpp"
#include "timeseries/signal.hpp"
#include "workloads/bio.hpp"
#include "workloads/climate.hpp"
#include "workloads/fusion.hpp"
#include "workloads/materials.hpp"
#include "workloads/skew.hpp"

namespace drbench {

using namespace drai;

namespace {

/// Spans whose self time lies on the path `wall_s` times (generation,
/// archetype stages, the dataset hash check). The other replayed spans
/// measure a layer in isolation and would double-count.
const std::set<std::string>& OnPathSpans() {
  static const std::set<std::string> spans = {
      "workloads.generate", "workloads.skew_burn", "container.grib_decode",
      "grid.regrid",        "ndarray.scalar_sweep", "stats.observe",
      "stats.apply",        "grid.patches",        "ndarray.cast",
      "shard.write",        "hash.sha256",         "quality.assess",
      "readiness.assess",   "timeseries.clean",    "timeseries.align",
      "privacy.classify",   "privacy.pseudonymize", "privacy.kanon",
      "graph.encode"};
  return spans;
}

/// Facts one replay pass measures besides span times.
struct PassFacts {
  double grib_bytes = 0;
  double regrid_cells = 0;
  double scalar_calls = 0;
  double shard_records = 0;
  double shard_bytes = 0;
  double checkpoint_bytes = 0;
};

/// A dataset the shard tail rewrites and re-reads.
struct DatasetExamples {
  shard::ShardWriterConfig writer;
  Bytes normalizer_blob;
  std::map<shard::Split, std::vector<shard::Example>> by_split;
};

/// Every file under `dir`, concatenated (for the hash throughput spans).
Bytes DatasetBytes(const par::StripedStore& store, const std::string& dir) {
  Bytes all;
  for (const std::string& path : store.List(dir)) {
    const Bytes b = store.ReadAll(path).value();
    all.insert(all.end(), b.begin(), b.end());
  }
  return all;
}

/// The shard layer and hashing on one dataset's examples: encode/decode in
/// isolation, a ShardWriter into a fresh store (on path), the dataset hash
/// check (on path), ShardReader read-back, and CRC-32 throughput.
Status ShardTail(Tracer& t, const std::vector<DatasetExamples>& datasets,
                 PassFacts& facts) {
  par::StripedStore store;
  std::vector<shard::Example> all;
  for (const DatasetExamples& d : datasets) {
    {
      Tracer::Scope s(t, "shard.write");
      shard::ShardWriter writer(store, d.writer);
      if (!d.normalizer_blob.empty()) writer.SetNormalizerBlob(d.normalizer_blob);
      for (const auto& [split, examples] : d.by_split) {
        for (const shard::Example& ex : examples) {
          DRAI_RETURN_IF_ERROR(writer.AddTo(split, ex));
        }
      }
      DRAI_ASSIGN_OR_RETURN(shard::DatasetManifest manifest, writer.Finalize());
      facts.shard_records += static_cast<double>(manifest.TotalRecords());
    }
    for (const auto& [split, examples] : d.by_split) {
      all.insert(all.end(), examples.begin(), examples.end());
    }
  }
  std::vector<Bytes> encoded;
  {
    Tracer::Scope s(t, "shard.example_encode");
    encoded.reserve(all.size());
    for (const shard::Example& ex : all) encoded.push_back(ex.Serialize());
  }
  {
    Tracer::Scope s(t, "shard.example_decode");
    for (const Bytes& b : encoded) {
      DRAI_ASSIGN_OR_RETURN(shard::Example ex, shard::Example::Parse(b));
      (void)ex;
    }
  }
  for (const DatasetExamples& d : datasets) {
    Tracer::Scope s(t, "shard.read");
    DRAI_ASSIGN_OR_RETURN(shard::ShardReader reader,
                          shard::ShardReader::Open(store, d.writer.directory));
    for (shard::Split split : shard::kAllSplits) {
      DRAI_ASSIGN_OR_RETURN(auto examples, reader.ReadAll(split));
      (void)examples;
    }
  }
  Bytes bytes;
  std::vector<std::string> dirs;
  for (const DatasetExamples& d : datasets) {
    const Bytes b = DatasetBytes(store, d.writer.directory);
    bytes.insert(bytes.end(), b.begin(), b.end());
    dirs.push_back(d.writer.directory);
  }
  facts.shard_bytes += static_cast<double>(bytes.size());
  {
    // The benchmark's own dataset check: SHA-256 over paths + bytes.
    Tracer::Scope s(t, "hash.sha256");
    (void)DatasetHash(store, dirs);
  }
  {
    Tracer::Scope s(t, "hash.crc32");
    volatile uint32_t crc = Crc32(bytes);
    (void)crc;
  }
  {
    Tracer::Scope s(t, "quality.assess");
    (void)core::AssessQuality(all);
  }
  return Status::Ok();
}

core::DatasetState ReadyState() {
  core::DatasetState s;
  s.acquired = s.validated_standard_format = s.metadata_enriched = true;
  s.high_throughput_ingest = s.ingest_automated = s.initial_alignment = true;
  s.grids_standardized = s.alignment_fully_standardized = true;
  s.alignment_automated = s.basic_normalization = true;
  s.normalization_finalized = s.basic_labels = s.comprehensive_labels = true;
  s.transform_automated_audited = s.features_extracted = true;
  s.features_validated = s.split_and_sharded = true;
  s.label_fraction = 1.0;
  return s;
}

/// Replay of the climate archetype's layer calls on its own inputs.
Status ClimatePass(Tracer& t, const domains::ClimateArchetypeConfig& c,
                   PassFacts& facts) {
  Tracer::Scope root(t, "replay");
  Bytes grib;
  {
    Tracer::Scope s(t, "workloads.generate");
    grib = workloads::GenerateClimateGrib(c.workload);
  }
  facts.grib_bytes += static_cast<double>(grib.size());
  std::vector<container::GribMessage> messages;
  {
    Tracer::Scope s(t, "container.grib_decode");
    DRAI_ASSIGN_OR_RETURN(messages, container::DecodeGribFile(grib));
  }
  const auto& variables = c.workload.variables;
  std::map<std::string, size_t> var_index;
  for (size_t v = 0; v < variables.size(); ++v) var_index[variables[v]] = v;
  const grid::LatLonGrid src = workloads::ClimateSourceGrid(c.workload);
  const grid::LatLonGrid dst = grid::LatLonGrid::Uniform(c.target_lat, c.target_lon);

  // (time, variable) -> regridded field, in the archetype's key order.
  struct Field {
    size_t t = 0;
    size_t v = 0;
    NDArray data;
  };
  std::vector<Field> fields;
  {
    Tracer::Scope s(t, "grid.regrid");
    std::map<std::string, size_t> t_of;
    for (const auto& msg : messages) {
      Field f;
      f.t = t_of[msg.variable]++;
      f.v = var_index.at(msg.variable);
      DRAI_ASSIGN_OR_RETURN(f.data, grid::Regrid(msg.field, src, dst, c.regrid));
      facts.regrid_cells += static_cast<double>(f.data.numel());
      fields.push_back(std::move(f));
    }
  }

  // Stage checkpointing works on the post-regrid bundle.
  {
    core::DataBundle bundle;
    for (const Field& f : fields) {
      char key[48];
      std::snprintf(key, sizeof(key), "grid@t%05zu/", f.t);
      bundle.tensors[key + variables[f.v]] = f.data;
    }
    core::PipelineCheckpoint cp;
    cp.pipeline = "climate-archetype";
    {
      Tracer::Scope s(t, "bundle.clone");
      cp.bundle = bundle.Clone();
    }
    {
      Tracer::Scope s(t, "bundle.serialize");
      (void)bundle.Serialize();
    }
    par::StripedStore ckpt_store;
    core::StoreCheckpointSink sink(ckpt_store, kCheckpointDir);
    {
      Tracer::Scope s(t, "checkpoint.save");
      DRAI_RETURN_IF_ERROR(sink.Save(cp));
    }
    facts.checkpoint_bytes += static_cast<double>(ckpt_store.UsedBytes());
  }

  // regrid's observe loop: per-element reads, then Normalizer::Observe.
  std::vector<std::vector<double>> values(fields.size());
  {
    Tracer::Scope s(t, "ndarray.scalar_sweep");
    for (size_t i = 0; i < fields.size(); ++i) {
      const NDArray& a = fields[i].data;
      values[i].resize(a.numel());
      for (size_t j = 0; j < a.numel(); ++j) values[i][j] = a.GetAsDouble(j);
    }
  }
  stats::Normalizer norm(stats::NormKind::kZScore, variables.size());
  {
    Tracer::Scope s(t, "stats.observe");
    for (size_t i = 0; i < fields.size(); ++i) {
      for (double x : values[i]) norm.Observe(fields[i].v, x);
    }
    norm.Fit();
  }
  if (c.skew.active()) {
    Tracer::Scope s(t, "workloads.skew_burn");
    for (const Field& f : fields) {
      workloads::BurnCpu(workloads::SkewIters(c.skew, f.t));
    }
  }
  // normalize: read, mean-fill + z-score, write back.
  {
    Tracer::Scope s(t, "ndarray.scalar_sweep");
    for (size_t i = 0; i < fields.size(); ++i) {
      const NDArray& a = fields[i].data;
      for (size_t j = 0; j < a.numel(); ++j) values[i][j] = a.GetAsDouble(j);
    }
  }
  {
    Tracer::Scope s(t, "stats.apply");
    for (size_t i = 0; i < fields.size(); ++i) {
      const size_t v = fields[i].v;
      const double mean = norm.Center(v);
      for (double& x : values[i]) x = norm.Apply(v, std::isnan(x) ? mean : x);
    }
  }
  {
    Tracer::Scope s(t, "ndarray.scalar_sweep");
    for (size_t i = 0; i < fields.size(); ++i) {
      NDArray& a = fields[i].data;
      for (size_t j = 0; j < a.numel(); ++j) a.SetFromDouble(j, values[i][j]);
    }
  }
  // One read per cell when observing, a read and a write when normalizing.
  facts.scalar_calls += 3.0 * facts.regrid_cells;

  // patch: assemble [vars, lat, lon] per time step, cut, cast to f32.
  std::map<size_t, std::vector<const Field*>> by_time;
  for (const Field& f : fields) by_time[f.t].push_back(&f);
  DatasetExamples dataset;
  dataset.writer.dataset_name = "climate-patches";
  dataset.writer.created_by = "drai/climate-archetype";
  dataset.writer.directory = c.dataset_dir;
  dataset.writer.split_seed = c.split_seed;
  {
    ByteWriter nb;
    norm.Serialize(nb);
    dataset.normalizer_blob = nb.Take();
  }
  const shard::SplitAssigner assigner(dataset.writer.train_frac,
                                      dataset.writer.val_frac,
                                      dataset.writer.test_frac,
                                      dataset.writer.split_seed);
  for (const auto& [time, group] : by_time) {
    NDArray patches;
    {
      Tracer::Scope s(t, "grid.patches");
      NDArray frame = NDArray::Zeros(
          {variables.size(), dst.n_lat(), dst.n_lon()}, DType::kF64);
      for (const Field* f : group) {
        NDArray slot = frame.Slice(0, f->v, f->v + 1).Reshape({dst.n_lat(), dst.n_lon()});
        slot.CopyFrom(f->data);
      }
      DRAI_ASSIGN_OR_RETURN(patches, grid::ExtractPatches(frame, c.patch, c.patch));
    }
    Tracer::Scope s(t, "ndarray.cast");
    for (size_t p = 0; p < patches.shape()[0]; ++p) {
      shard::Example ex;
      ex.key = "t" + std::to_string(time) + "-p" + std::to_string(p);
      const NDArray one = patches.Slice(0, p, p + 1);
      ex.features["x"] = one.Reshape({variables.size(), c.patch, c.patch})
                             .Cast(DType::kF32);
      ex.features["y"] =
          NDArray::FromVector<float>({1}, {static_cast<float>(Mean(one))});
      dataset.by_split[assigner.Assign(ex.key)].push_back(std::move(ex));
    }
  }
  DRAI_RETURN_IF_ERROR(ShardTail(t, {dataset}, facts));
  {
    Tracer::Scope s(t, "readiness.assess");
    (void)core::Assess(ReadyState());
  }
  return Status::Ok();
}

/// Replay of the fusion, bio and materials layer calls on their own inputs,
/// then the shard tail on the examples the traced run wrote.
Status MixPass(Tracer& t, const Configs& configs, const Outcome& outcome,
               PassFacts& facts) {
  Tracer::Scope root(t, "replay");
  const auto& fc = *configs.fusion;
  const auto& bc = *configs.bio;
  const auto& mc = *configs.materials;
  std::vector<workloads::FusionShot> shots;
  workloads::BioWorkload bio;
  std::vector<graph::Structure> structures;
  {
    Tracer::Scope s(t, "workloads.generate");
    shots = workloads::GenerateFusionShots(fc.workload);
    bio = workloads::GenerateBioWorkload(bc.workload);
    structures = workloads::GenerateMaterials(mc.workload);
  }
  {
    Tracer::Scope s(t, "timeseries.clean");
    for (auto& shot : shots) {
      for (auto& ch : shot.channels) {
        (void)timeseries::Despike(ch, fc.despike_z);
        (void)timeseries::FillGaps(ch, fc.max_gap);
      }
    }
  }
  {
    Tracer::Scope s(t, "timeseries.align");
    for (const auto& shot : shots) {
      DRAI_ASSIGN_OR_RETURN(auto frame,
                            timeseries::AlignChannels(shot.channels, fc.align_dt));
      (void)frame;
    }
  }
  privacy::Table table = bio.clinical;
  std::vector<std::string> direct;
  {
    Tracer::Scope s(t, "privacy.classify");
    for (size_t col = 0; col < table.columns.size(); ++col) {
      std::vector<std::string> sample;
      for (size_t r = 0; r < std::min<size_t>(table.rows.size(), 32); ++r) {
        sample.push_back(table.rows[r][col]);
      }
      if (privacy::ClassifyField(table.columns[col], sample) ==
          privacy::FieldClass::kDirectIdentifier) {
        direct.push_back(table.columns[col]);
      }
    }
  }
  {
    Tracer::Scope s(t, "privacy.pseudonymize");
    const privacy::Pseudonymizer pseudo(bc.hmac_key);
    for (const std::string& col : direct) {
      DRAI_RETURN_IF_ERROR(pseudo.PseudonymizeColumn(table, col));
    }
  }
  {
    Tracer::Scope s(t, "privacy.kanon");
    privacy::KAnonymityConfig kc;
    kc.k = bc.k_anonymity;
    kc.numeric_bands["age"] = 5;
    kc.prefix_lengths["zip"] = 3;
    DRAI_ASSIGN_OR_RETURN(auto report, privacy::EnforceKAnonymity(table, kc));
    (void)report;
  }
  {
    Tracer::Scope s(t, "graph.encode");
    for (const auto& st : structures) {
      DRAI_ASSIGN_OR_RETURN(auto g, graph::EncodeGraph(st, mc.encode));
      (void)g;
    }
  }
  // The datasets the traced run wrote, read back and rewritten split by
  // split with their own manifests' settings.
  std::vector<DatasetExamples> datasets;
  for (const std::string& dir : outcome.dataset_dirs) {
    DRAI_ASSIGN_OR_RETURN(shard::ShardReader reader,
                          shard::ShardReader::Open(*outcome.store, dir));
    DatasetExamples d;
    d.writer.dataset_name = reader.manifest().dataset_name;
    d.writer.directory = dir;
    d.normalizer_blob = reader.manifest().normalizer_blob;
    for (shard::Split split : shard::kAllSplits) {
      DRAI_ASSIGN_OR_RETURN(d.by_split[split], reader.ReadAll(split));
    }
    datasets.push_back(std::move(d));
  }
  DRAI_RETURN_IF_ERROR(ShardTail(t, datasets, facts));
  {
    Tracer::Scope s(t, "readiness.assess");
    (void)core::Assess(ReadyState());
  }
  return Status::Ok();
}

double Seconds(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

std::vector<Metric> TraceLayers(const TraceInputs& in, Tracer& tracer,
                                bool& ok) {
  // Replay passes until the time budget is spent; per-layer self times are
  // the median over passes.
  std::map<std::string, std::vector<double>> per_pass;
  PassFacts facts;
  size_t passes = 0;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::map<std::string, double> before;
  while (passes == 0 || (elapsed() < in.seconds && passes < 25)) {
    PassFacts pass;
    const Status st = in.configs.climate
                          ? ClimatePass(tracer, *in.configs.climate, pass)
                          : MixPass(tracer, in.configs, *in.outcome, pass);
    if (!st.ok()) {
      std::fprintf(stderr, "drbench: replay failed: %s\n", st.ToString().c_str());
      ok = false;
      break;
    }
    facts = pass;
    ++passes;
    const auto after = tracer.SelfSeconds();
    for (const auto& [name, s] : after) {
      per_pass[name].push_back(s - Seconds(before, name));
    }
    before = after;
  }
  std::map<std::string, double> self;
  for (const auto& [name, v] : per_pass) self[name] = Median(v);

  // Executor facts from the real run's reports.
  double stage_s = 0, total_s = 0, partitions = 0, attempts = 0, retries = 0;
  double skew = 1, windows = 0, saved = 0;
  for (const core::PipelineReport& r : in.outcome->reports) {
    total_s += r.total_seconds;
    windows += static_cast<double>(r.overlap_windows);
    saved += r.overlap_seconds_saved;
    for (const core::StageMetrics& m : r.stages) {
      stage_s += m.seconds;
      partitions += static_cast<double>(m.partitions);
      attempts += static_cast<double>(m.attempts);
      const uint64_t ran =
          m.partition_seconds.empty() ? 1 : m.partition_seconds.size();
      if (m.attempts > ran) retries += static_cast<double>(m.attempts - ran);
      skew = std::max(skew, m.PartitionSkew());
    }
  }
  const par::StripedStoreStats store = in.outcome->store->stats();
  double run_ckpt_bytes = 0;
  for (const std::string& path : in.outcome->store->List(kCheckpointDir)) {
    run_ckpt_bytes += static_cast<double>(in.outcome->store->Size(path).value());
  }
  auto arch = [&](size_t i) {
    return in.configs.fusion && i < in.outcome->archetype_seconds.size()
               ? in.outcome->archetype_seconds[i]
               : 0.0;
  };

  double on_path = 0;
  for (const auto& [name, s] : self) {
    if (OnPathSpans().count(name) != 0) on_path += s;
  }
  const double share = in.wall_s > 0 ? on_path / in.wall_s : 0;

  auto rate = [](double amount, double seconds) {
    return seconds > 0 ? amount / seconds : 0.0;
  };
  const double mb = 1e6;
  auto Layer = [](const char* name, const char* unit, double value) {
    Metric m;
    m.name = name;
    m.unit = unit;
    m.value = value;
    return m;
  };
  std::vector<Metric> out = {
      Layer("workloads.generate_s", "s", Seconds(self, "workloads.generate")),
      Layer("workloads.skew_burn_s", "s", Seconds(self, "workloads.skew_burn")),
      Layer("container.grib_decode_s", "s", Seconds(self, "container.grib_decode")),
      Layer("container.grib_decode_mb_per_s", "MB/s",
       rate(facts.grib_bytes / mb, Seconds(self, "container.grib_decode"))),
      Layer("grid.regrid_s", "s", Seconds(self, "grid.regrid")),
      Layer("grid.regrid_cells_per_s", "cells/s",
       rate(facts.regrid_cells, Seconds(self, "grid.regrid"))),
      Layer("grid.patches_s", "s", Seconds(self, "grid.patches")),
      Layer("stats.observe_s", "s", Seconds(self, "stats.observe")),
      Layer("stats.apply_s", "s", Seconds(self, "stats.apply")),
      Layer("ndarray.scalar_sweep_s", "s", Seconds(self, "ndarray.scalar_sweep")),
      Layer("ndarray.cast_s", "s", Seconds(self, "ndarray.cast")),
      Layer("ndarray.scalar_calls", "count", facts.scalar_calls),
      Layer("hash.crc32_mb_per_s", "MB/s",
       rate(facts.shard_bytes / mb, Seconds(self, "hash.crc32"))),
      Layer("hash.sha256_mb_per_s", "MB/s",
       rate(facts.shard_bytes / mb, Seconds(self, "hash.sha256"))),
      Layer("shard.example_encode_s", "s", Seconds(self, "shard.example_encode")),
      Layer("shard.write_s", "s", Seconds(self, "shard.write")),
      Layer("shard.read_s", "s", Seconds(self, "shard.read")),
      Layer("shard.readback_records_per_s", "1/s",
       rate(facts.shard_records, Seconds(self, "shard.read"))),
      Layer("shard.example_decode_s", "s", Seconds(self, "shard.example_decode")),
      Layer("shard.records", "count", facts.shard_records),
      Layer("shard.bytes", "B", facts.shard_bytes),
      Layer("store.write_ops", "count", static_cast<double>(store.write_ops)),
      Layer("store.read_ops", "count", static_cast<double>(store.read_ops)),
      Layer("store.bytes_written", "B", static_cast<double>(store.bytes_written)),
      Layer("store.bytes_read", "B", static_cast<double>(store.bytes_read)),
      Layer("store.simulated_s", "s", store.simulated_seconds),
      Layer("exec.reported_share", "ratio", total_s > 0 ? stage_s / total_s : 0),
      Layer("exec.partitions", "count", partitions),
      Layer("exec.attempts", "count", attempts),
      Layer("exec.retries", "count", retries),
      Layer("exec.useful_attempt_ratio", "ratio", rate(partitions, attempts)),
      Layer("exec.partition_skew", "ratio", skew),
      Layer("exec.overlap_windows", "count", windows),
      Layer("exec.overlap_seconds_saved", "s", saved),
      Layer("bundle.clone_s", "s", Seconds(self, "bundle.clone")),
      Layer("bundle.serialize_s", "s", Seconds(self, "bundle.serialize")),
      Layer("checkpoint.save_s", "s", Seconds(self, "checkpoint.save")),
      Layer("checkpoint.bytes", "B", facts.checkpoint_bytes),
      Layer("checkpoint.run_bytes", "B", run_ckpt_bytes),
      Layer("quality.assess_s", "s", Seconds(self, "quality.assess")),
      Layer("readiness.assess_s", "s", Seconds(self, "readiness.assess")),
      Layer("timeseries.align_s", "s", Seconds(self, "timeseries.align")),
      Layer("privacy.pseudonymize_s", "s", Seconds(self, "privacy.pseudonymize")),
      Layer("privacy.kanon_s", "s", Seconds(self, "privacy.kanon")),
      Layer("graph.encode_s", "s", Seconds(self, "graph.encode")),
      Layer("mix.fusion_wall_s", "s", arch(0)),
      Layer("mix.bio_wall_s", "s", arch(1)),
      Layer("mix.materials_wall_s", "s", arch(2)),
      Layer("trace.wall_s", "s", in.wall_s),
      Layer("trace.layer_share", "ratio", share),
      Layer("trace.gap_s", "s", in.wall_s - on_path),
      Layer("trace.passes", "count", static_cast<double>(passes)),
  };

  std::fprintf(stderr, "drbench: layer self time (median of %zu replay passes)\n",
               passes);
  for (const auto& [name, s] : self) {
    const bool path = OnPathSpans().count(name) != 0;
    std::fprintf(stderr, "  %-24s %9.3f ms  %5.1f%% of wall_s%s\n", name.c_str(),
                 s * 1e3, in.wall_s > 0 ? 100 * s / in.wall_s : 0.0,
                 path ? "" : "  (isolated, not summed)");
  }
  std::fprintf(stderr,
               "  on-path layers cover %.1f%% of wall_s %.3f ms; gap %.3f ms\n",
               100 * share, in.wall_s * 1e3, (in.wall_s - on_path) * 1e3);
  return out;
}

}  // namespace drbench
