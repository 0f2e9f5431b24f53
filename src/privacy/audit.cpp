#include "privacy/audit.hpp"

namespace drai::privacy {

std::string AuditLog::ComputeHash(const AuditEntry& e) {
  Sha256 ctx;
  ctx.Update(std::to_string(e.sequence));
  ctx.Update("\x1f");
  ctx.Update(e.actor);
  ctx.Update("\x1f");
  ctx.Update(e.action);
  ctx.Update("\x1f");
  ctx.Update(e.detail);
  ctx.Update("\x1f");
  ctx.Update(e.prev_hash_hex);
  return DigestToHex(ctx.Finish());
}

const AuditEntry& AuditLog::Append(std::string actor, std::string action,
                                   std::string detail) {
  AuditEntry e;
  e.sequence = entries_.size();
  e.actor = std::move(actor);
  e.action = std::move(action);
  e.detail = std::move(detail);
  e.prev_hash_hex = HeadHash();
  e.hash_hex = ComputeHash(e);
  entries_.push_back(std::move(e));
  return entries_.back();
}

Status AuditLog::Verify() const {
  std::string prev;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const AuditEntry& e = entries_[i];
    if (e.sequence != i) {
      return DataLoss("audit entry " + std::to_string(i) + ": bad sequence");
    }
    if (e.prev_hash_hex != prev) {
      return DataLoss("audit entry " + std::to_string(i) + ": chain broken");
    }
    if (ComputeHash(e) != e.hash_hex) {
      return DataLoss("audit entry " + std::to_string(i) + ": hash mismatch");
    }
    prev = e.hash_hex;
  }
  return Status::Ok();
}

std::string AuditLog::HeadHash() const {
  return entries_.empty() ? "" : entries_.back().hash_hex;
}

Bytes AuditLog::Serialize() const {
  ByteWriter w;
  w.PutMagic("AUD1");
  w.PutVarU64(entries_.size());
  for (const AuditEntry& e : entries_) {
    w.PutU64(e.sequence);
    w.PutString(e.actor);
    w.PutString(e.action);
    w.PutString(e.detail);
    w.PutString(e.prev_hash_hex);
    w.PutString(e.hash_hex);
  }
  w.PutU32(Crc32(w.bytes()));
  return w.Take();
}

Result<AuditLog> AuditLog::Parse(std::span<const std::byte> bytes) {
  if (bytes.size() < 8) return DataLoss("audit log: too small");
  ByteReader crc_r(bytes.subspan(bytes.size() - 4));
  uint32_t crc = 0;
  DRAI_RETURN_IF_ERROR(crc_r.GetU32(crc));
  if (Crc32(bytes.subspan(0, bytes.size() - 4)) != crc) {
    return DataLoss("audit log: crc mismatch");
  }
  ByteReader r(bytes.subspan(0, bytes.size() - 4));
  char magic[4];
  DRAI_RETURN_IF_ERROR(r.GetRaw(magic, 4));
  if (std::string_view(magic, 4) != "AUD1") {
    return DataLoss("audit log: bad magic");
  }
  uint64_t n = 0;
  DRAI_RETURN_IF_ERROR(r.GetVarU64(n));
  if (n > (1ull << 24)) return DataLoss("audit log: implausible size");
  AuditLog log;
  // Grow per entry read, never from the claimed count.
  for (uint64_t k = 0; k < n; ++k) {
    AuditEntry e;
    DRAI_RETURN_IF_ERROR(r.GetU64(e.sequence));
    DRAI_RETURN_IF_ERROR(r.GetString(e.actor));
    DRAI_RETURN_IF_ERROR(r.GetString(e.action));
    DRAI_RETURN_IF_ERROR(r.GetString(e.detail));
    DRAI_RETURN_IF_ERROR(r.GetString(e.prev_hash_hex));
    DRAI_RETURN_IF_ERROR(r.GetString(e.hash_hex));
    log.entries_.push_back(std::move(e));
  }
  DRAI_RETURN_IF_ERROR(log.Verify());
  return log;
}

}  // namespace drai::privacy
