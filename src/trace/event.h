// Trace event encoding.
//
// Each thread's log file is a sequence of compressed frames whose
// decompressed payload is a stream of events. Offsets in the meta file are
// *logical* (decompressed-stream) byte offsets, so the writer knows every
// interval's position without waiting for compression, and the reader can
// skip frames using only their headers (paper SIII-B's streaming reads).
//
// The payload encoding is format v3 (frame magic "SW3F", compress/frame.h):
// variable-length events, each one packed tag byte (kind / flags / size
// code), a varint pc, and the ADDRESS DELTA against the previous access in
// the same frame as a zigzag varint. Typical access events take 3-5 bytes,
// and the delta stream compresses well (strided loops become runs of
// identical bytes). Delta state resets at every frame boundary, so frames
// stay independently decodable. The kAccessRun kind stands for `count`
// accesses at base, base+stride, ..., base+(count-1)*stride with equal
// size/flags/pc - the shape every `parallel for` sweep produces. The
// writer's coalescer emits runs; the offline analyzer materializes them
// directly as strided intervals without per-element expansion.
//
// Formats v1 (fixed 16-byte events, "SWDF") and v2 (v3 without runs,
// "SWF2") are retired: readers refuse them (docs/FORMAT.md).
//
// Event kinds:
//   kAccess        - one instrumented load/store; addr/size/flags/pc
//   kMutexAcquire  - lock id in `addr`
//   kMutexRelease  - lock id in `addr`
//   kAccessRun     - coalesced strided run
// Barrier and region boundaries are not log events: they are exactly the
// meta-file interval boundaries (Table I).
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace sword::trace {

/// The trace event-encoding format version, recorded in every meta header.
constexpr uint8_t kTraceFormatV3 = 3;

enum class EventKind : uint8_t {
  kAccess = 0,
  kMutexAcquire = 1,
  kMutexRelease = 2,
  kAccessRun = 3,
};

struct RawEvent {
  EventKind kind = EventKind::kAccess;
  uint8_t flags = 0;   // somp::AccessFlags for kAccess/kAccessRun
  uint8_t size = 0;    // access size in bytes for kAccess/kAccessRun
  uint32_t pc = 0;     // interned source location for kAccess/kAccessRun
  uint64_t addr = 0;   // address for kAccess(Run); mutex id for kMutex*
  uint64_t stride = 0; // kAccessRun: element spacing in bytes (>= 1)
  uint64_t count = 1;  // kAccessRun: number of elements (>= 2)

  static RawEvent Access(uint64_t addr, uint8_t size, uint8_t flags, uint32_t pc) {
    RawEvent e;
    e.kind = EventKind::kAccess;
    e.flags = flags;
    e.size = size;
    e.pc = pc;
    e.addr = addr;
    return e;
  }
  static RawEvent Run(uint64_t base, uint64_t stride, uint64_t count,
                      uint8_t size, uint8_t flags, uint32_t pc) {
    RawEvent e;
    e.kind = EventKind::kAccessRun;
    e.flags = flags;
    e.size = size;
    e.pc = pc;
    e.addr = base;
    e.stride = stride;
    e.count = count;
    return e;
  }
  static RawEvent MutexAcquire(uint32_t mutex) {
    RawEvent e;
    e.kind = EventKind::kMutexAcquire;
    e.addr = mutex;
    return e;
  }
  static RawEvent MutexRelease(uint32_t mutex) {
    RawEvent e;
    e.kind = EventKind::kMutexRelease;
    e.addr = mutex;
    return e;
  }

  friend bool operator==(const RawEvent&, const RawEvent&) = default;
};

/// Upper bound on one encoded event's size: tag (1) + extended flags (1)
/// + explicit size varint (2) + pc varint (5) + address-delta varint (10)
/// + a run's stride and count varints (10 each).
constexpr uint64_t kMaxEventBytesV3 = 39;

/// Delta-coder state: the previous ACCESS address seen in the current frame.
/// Encoder and decoder must carry matching state and reset it at every frame
/// boundary (the writer resets on flush; frames stay self-contained).
struct EventCodecState {
  uint64_t prev_addr = 0;
};

/// Appends the variable-length encoding of `e`, updating `state`. kAccessRun
/// puts varint stride and count after the base-address delta, and advances
/// `prev_addr` to the LAST element's address so a continuation right after
/// the run still gets a small delta.
void EncodeEventV3(const RawEvent& e, EventCodecState& state, ByteWriter& w);

/// Decodes one event, updating `state`; fails on truncation, a reserved
/// tag layout, or an implausible run (count < 2, stride 0, or an extent
/// that overflows the address space).
Status DecodeEventV3(ByteReader& r, EventCodecState& state, RawEvent* out);

}  // namespace sword::trace
