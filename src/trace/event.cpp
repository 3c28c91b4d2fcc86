#include "trace/event.h"

namespace sword::trace {

// Tag byte layout:
//   bits 0-1  kind (0 access, 1 acquire, 2 release, 3 kAccessRun)
// for kAccess (and kAccessRun, which shares the access layout):
//   bit 2     write flag   (somp::kAccessWrite)
//   bit 3     atomic flag  (somp::kAccessAtomic)
//   bits 4-7  size code: 1..8 -> size = 1 << (code-1); 0 -> explicit varint
//             size follows; 15 -> "extended": a full flags byte then a
//             varint size follow (future-proofing for flags beyond the two
//             bits above); 9..14 reserved (rejected)
// for kMutex*: bits 2-7 must be zero.
//
// Then, for kAccess: varint pc, zigzag-varint (addr - prev_access_addr).
// For kAccessRun: varint pc, zigzag-varint (base - prev_access_addr),
// varint stride, varint count; prev advances to the LAST element's address.
// For kMutex*: varint mutex id (absolute - lock ids are small and unordered,
// deltas would not help).
namespace {

constexpr uint8_t kInlineFlagsMask = 0x03;  // write | atomic
constexpr uint8_t kSizeCodeExplicit = 0;
constexpr uint8_t kSizeCodeExtended = 15;

/// Size code for power-of-two sizes 1..128, else kSizeCodeExplicit.
uint8_t SizeCode(uint8_t size) {
  if (size == 0 || (size & (size - 1)) != 0) return kSizeCodeExplicit;
  uint8_t code = 1;
  while ((uint8_t)(1u << (code - 1)) != size) code++;
  return code;  // 1..8
}

/// Emits the tag byte plus the optional extended-flags / explicit-size
/// prefix shared by kAccess and kAccessRun.
void EncodeAccessTag(const RawEvent& e, ByteWriter& w) {
  const bool extended = (e.flags & ~kInlineFlagsMask) != 0;
  const uint8_t code = extended ? kSizeCodeExtended : SizeCode(e.size);
  uint8_t tag = static_cast<uint8_t>(e.kind);
  tag |= static_cast<uint8_t>((e.flags & kInlineFlagsMask) << 2);
  tag |= static_cast<uint8_t>(code << 4);
  w.PutU8(tag);
  if (extended) {
    w.PutU8(e.flags);
    w.PutVarU64(e.size);
  } else if (code == kSizeCodeExplicit) {
    w.PutVarU64(e.size);
  }
}

/// Decodes the flags/size/pc/addr-delta payload shared by kAccess and
/// kAccessRun, given the already-consumed tag byte.
Status DecodeAccessPayload(uint8_t tag, ByteReader& r, RawEvent* out,
                           int64_t* delta) {
  const uint8_t code = tag >> 4;
  uint64_t size = 0;
  uint8_t flags = (tag >> 2) & kInlineFlagsMask;
  if (code == kSizeCodeExtended) {
    SWORD_RETURN_IF_ERROR(r.GetU8(&flags));
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&size));
  } else if (code == kSizeCodeExplicit) {
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&size));
  } else if (code <= 8) {
    size = 1ull << (code - 1);
  } else {
    return Status::Corrupt("reserved event size code");
  }
  if (size > 0xff) return Status::Corrupt("event size out of range");

  uint64_t pc;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&pc));
  if (pc > 0xffffffffull) return Status::Corrupt("event pc out of range");
  SWORD_RETURN_IF_ERROR(r.GetVarI64(delta));

  out->flags = flags;
  out->size = static_cast<uint8_t>(size);
  out->pc = static_cast<uint32_t>(pc);
  return Status::Ok();
}

Status DecodeMutexPayload(uint8_t tag, ByteReader& r, RawEvent* out) {
  if ((tag & ~0x03u) != 0) return Status::Corrupt("nonzero mutex tag bits");
  uint64_t id;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&id));
  out->flags = 0;
  out->size = 0;
  out->pc = 0;
  out->addr = id;
  return Status::Ok();
}

}  // namespace

void EncodeEventV3(const RawEvent& e, EventCodecState& state, ByteWriter& w) {
  if (e.kind == EventKind::kMutexAcquire || e.kind == EventKind::kMutexRelease) {
    w.PutU8(static_cast<uint8_t>(e.kind));
    w.PutVarU64(e.addr);
    return;
  }
  EncodeAccessTag(e, w);
  w.PutVarU64(e.pc);
  w.PutVarI64(static_cast<int64_t>(e.addr - state.prev_addr));
  if (e.kind == EventKind::kAccessRun) {
    w.PutVarU64(e.stride);
    w.PutVarU64(e.count);
    state.prev_addr = e.addr + (e.count - 1) * e.stride;
  } else {
    state.prev_addr = e.addr;
  }
}

Status DecodeEventV3(ByteReader& r, EventCodecState& state, RawEvent* out) {
  uint8_t tag;
  SWORD_RETURN_IF_ERROR(r.GetU8(&tag));
  const uint8_t kind = tag & 0x03;
  out->kind = static_cast<EventKind>(kind);
  out->stride = 0;
  out->count = 1;

  if (out->kind == EventKind::kMutexAcquire ||
      out->kind == EventKind::kMutexRelease) {
    return DecodeMutexPayload(tag, r, out);
  }

  int64_t delta;
  SWORD_RETURN_IF_ERROR(DecodeAccessPayload(tag, r, out, &delta));
  out->addr = state.prev_addr + static_cast<uint64_t>(delta);

  if (out->kind == EventKind::kAccessRun) {
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->stride));
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->count));
    if (out->count < 2) return Status::Corrupt("run count below 2");
    if (out->stride == 0) return Status::Corrupt("run stride zero");
    if (out->stride > (UINT64_MAX - out->addr) / (out->count - 1)) {
      return Status::Corrupt("run extent overflows address space");
    }
    state.prev_addr = out->addr + (out->count - 1) * out->stride;
  } else {
    state.prev_addr = out->addr;
  }
  return Status::Ok();
}

}  // namespace sword::trace
