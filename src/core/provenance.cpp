#include "core/provenance.hpp"

#include <algorithm>
#include <set>

#include "common/strings.hpp"

namespace drai::core {

ProvenanceGraph::ProvenanceGraph(const ProvenanceGraph& other) {
  std::lock_guard<std::mutex> lock(other.mutex_);
  artifacts_ = other.artifacts_;
  activities_ = other.activities_;
  produced_by_ = other.produced_by_;
}

ProvenanceGraph& ProvenanceGraph::operator=(const ProvenanceGraph& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mutex_, other.mutex_);
  artifacts_ = other.artifacts_;
  activities_ = other.activities_;
  produced_by_ = other.produced_by_;
  return *this;
}

ProvenanceGraph::ProvenanceGraph(ProvenanceGraph&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mutex_);
  artifacts_ = std::move(other.artifacts_);
  activities_ = std::move(other.activities_);
  produced_by_ = std::move(other.produced_by_);
}

ProvenanceGraph& ProvenanceGraph::operator=(ProvenanceGraph&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mutex_, other.mutex_);
  artifacts_ = std::move(other.artifacts_);
  activities_ = std::move(other.activities_);
  produced_by_ = std::move(other.produced_by_);
  return *this;
}

size_t ProvenanceGraph::AddArtifact(const std::string& name,
                                    std::span<const std::byte> content) {
  return AddArtifactHashed(name, DigestToHex(Sha256::Hash(content)),
                           content.size());
}

size_t ProvenanceGraph::AddArtifactHashed(const std::string& name,
                                          std::string sha256_hex,
                                          uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  artifacts_.push_back({name, std::move(sha256_hex), bytes});
  return artifacts_.size() - 1;
}

Status ProvenanceGraph::AddActivity(Activity activity) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i : activity.inputs) {
    if (i >= artifacts_.size()) {
      return OutOfRange("activity input artifact index out of range");
    }
  }
  for (size_t o : activity.outputs) {
    if (o >= artifacts_.size()) {
      return OutOfRange("activity output artifact index out of range");
    }
    if (produced_by_.count(o)) {
      return AlreadyExists("artifact " + std::to_string(o) +
                           " already has a producer");
    }
  }
  const size_t act_index = activities_.size();
  for (size_t o : activity.outputs) produced_by_[o] = act_index;
  activities_.push_back(std::move(activity));
  return Status::Ok();
}

Result<std::vector<size_t>> ProvenanceGraph::Ancestors(size_t artifact) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (artifact >= artifacts_.size()) {
    return OutOfRange("artifact index out of range");
  }
  std::set<size_t> seen;
  std::vector<size_t> frontier{artifact};
  while (!frontier.empty()) {
    const size_t a = frontier.back();
    frontier.pop_back();
    auto it = produced_by_.find(a);
    if (it == produced_by_.end()) continue;
    for (size_t input : activities_[it->second].inputs) {
      if (seen.insert(input).second) frontier.push_back(input);
    }
  }
  return std::vector<size_t>(seen.begin(), seen.end());
}

Result<std::vector<size_t>> ProvenanceGraph::LineageActivities(
    size_t artifact) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (artifact >= artifacts_.size()) {
    return OutOfRange("artifact index out of range");
  }
  std::set<size_t> acts;
  std::vector<size_t> frontier{artifact};
  std::set<size_t> visited;
  while (!frontier.empty()) {
    const size_t a = frontier.back();
    frontier.pop_back();
    if (!visited.insert(a).second) continue;
    auto it = produced_by_.find(a);
    if (it == produced_by_.end()) continue;
    acts.insert(it->second);
    for (size_t input : activities_[it->second].inputs) {
      frontier.push_back(input);
    }
  }
  return std::vector<size_t>(acts.begin(), acts.end());
}

std::string ProvenanceGraph::RecordHash() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Sha256 ctx;
  for (const Artifact& a : artifacts_) {
    ctx.Update(a.name);
    ctx.Update("\x1f");
    ctx.Update(a.sha256_hex);
    ctx.Update("\x1f");
    ctx.Update(std::to_string(a.bytes));
    ctx.Update("\x1e");
  }
  for (const Activity& act : activities_) {
    ctx.Update(act.name);
    ctx.Update("\x1f");
    ctx.Update(act.stage_kind);
    for (const auto& [k, v] : act.params) {
      ctx.Update("\x1f");
      ctx.Update(k);
      ctx.Update("=");
      ctx.Update(v);
    }
    for (size_t i : act.inputs) {
      ctx.Update("\x1fi");
      ctx.Update(std::to_string(i));
    }
    for (size_t o : act.outputs) {
      ctx.Update("\x1fo");
      ctx.Update(std::to_string(o));
    }
    ctx.Update("\x1e");
  }
  return DigestToHex(ctx.Finish());
}

Bytes ProvenanceGraph::Serialize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ByteWriter w;
  w.PutMagic("PRV1");
  w.PutVarU64(artifacts_.size());
  for (const Artifact& a : artifacts_) {
    w.PutString(a.name);
    w.PutString(a.sha256_hex);
    w.PutU64(a.bytes);
  }
  w.PutVarU64(activities_.size());
  for (const Activity& act : activities_) {
    w.PutString(act.name);
    w.PutString(act.stage_kind);
    w.PutVarU64(act.params.size());
    for (const auto& [k, v] : act.params) {
      w.PutString(k);
      w.PutString(v);
    }
    w.PutVarU64(act.inputs.size());
    for (size_t i : act.inputs) w.PutVarU64(i);
    w.PutVarU64(act.outputs.size());
    for (size_t o : act.outputs) w.PutVarU64(o);
    w.PutF64(act.seconds);
  }
  w.PutU32(Crc32(w.bytes()));
  return w.Take();
}

Result<ProvenanceGraph> ProvenanceGraph::Parse(
    std::span<const std::byte> bytes) {
  if (bytes.size() < 8) return DataLoss("provenance: too small");
  ByteReader crc_r(bytes.subspan(bytes.size() - 4));
  uint32_t crc = 0;
  DRAI_RETURN_IF_ERROR(crc_r.GetU32(crc));
  if (Crc32(bytes.subspan(0, bytes.size() - 4)) != crc) {
    return DataLoss("provenance: crc mismatch");
  }
  ByteReader r(bytes.subspan(0, bytes.size() - 4));
  char magic[4];
  DRAI_RETURN_IF_ERROR(r.GetRaw(magic, 4));
  if (std::string_view(magic, 4) != "PRV1") {
    return DataLoss("provenance: bad magic");
  }
  ProvenanceGraph g;
  uint64_t n_artifacts = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n_artifacts));
  if (n_artifacts > (1ull << 24)) return DataLoss("provenance: implausible");
  // Every container grows per element read, never from a claimed count.
  for (uint64_t k = 0; k < n_artifacts; ++k) {
    Artifact a;
    DRAI_RETURN_IF_ERROR(r.GetString(a.name));
    DRAI_RETURN_IF_ERROR(r.GetString(a.sha256_hex));
    DRAI_RETURN_IF_ERROR(r.GetU64(a.bytes));
    g.artifacts_.push_back(std::move(a));
  }
  uint64_t n_activities = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n_activities));
  if (n_activities > (1ull << 24)) return DataLoss("provenance: implausible");
  for (uint64_t k = 0; k < n_activities; ++k) {
    Activity act;
    DRAI_RETURN_IF_ERROR(r.GetString(act.name));
    DRAI_RETURN_IF_ERROR(r.GetString(act.stage_kind));
    uint64_t n_params = 0;
    DRAI_RETURN_IF_ERROR(r.GetVarU64(n_params));
    for (uint64_t p = 0; p < n_params; ++p) {
      std::string key, value;
      DRAI_RETURN_IF_ERROR(r.GetString(key));
      DRAI_RETURN_IF_ERROR(r.GetString(value));
      act.params[key] = value;
    }
    uint64_t n_in = 0, n_out = 0;
    DRAI_RETURN_IF_ERROR(r.GetVarU64(n_in));
    for (uint64_t i = 0; i < n_in; ++i) {
      uint64_t v = 0;
      DRAI_RETURN_IF_ERROR(r.GetVarU64(v));
      act.inputs.push_back(static_cast<size_t>(v));
    }
    DRAI_RETURN_IF_ERROR(r.GetVarU64(n_out));
    for (uint64_t o = 0; o < n_out; ++o) {
      uint64_t v = 0;
      DRAI_RETURN_IF_ERROR(r.GetVarU64(v));
      act.outputs.push_back(static_cast<size_t>(v));
    }
    DRAI_RETURN_IF_ERROR(r.GetF64(act.seconds));
    DRAI_RETURN_IF_ERROR(g.AddActivity(std::move(act)));
  }
  return g;
}

std::string ProvenanceGraph::ToText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out += "artifacts (" + std::to_string(artifacts_.size()) + "):\n";
  for (size_t i = 0; i < artifacts_.size(); ++i) {
    out += "  [" + std::to_string(i) + "] " + artifacts_[i].name + "  sha256=" +
           artifacts_[i].sha256_hex.substr(0, 12) + "...  " +
           HumanBytes(artifacts_[i].bytes) + "\n";
  }
  out += "activities (" + std::to_string(activities_.size()) + "):\n";
  for (const Activity& act : activities_) {
    // Appends, not `literal + string&&`: g++ 12 -O3 flags that operator's
    // inlined insert with a false -Wrestrict.
    out += "  " + act.stage_kind + "/" + act.name + " (";
    out += HumanDuration(act.seconds);
    out += ")";
    if (!act.inputs.empty()) {
      out += "  in:";
      for (size_t i : act.inputs) {
        out += ' ';
        out += std::to_string(i);
      }
    }
    if (!act.outputs.empty()) {
      out += "  out:";
      for (size_t o : act.outputs) {
        out += ' ';
        out += std::to_string(o);
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace drai::core
