// A journal-v4 header record, byte for byte as the v4 writer framed it:
//
//   magic "SWAH" u32 | payload size varu64 | fnv1a64(payload) u64 | payload
//   payload = version u8 (4) | shard_index u32 | shard_count u32 | engine u8
//             | use_sweep u8 | use_fastpath u8 | use_stream u8
//             | use_symbolic u8 | use_dedup u8 | salvage u8
//             | solver_step_budget varu64 | bucket_deadline_ms varu64
//             | max_tree_bytes varu64 | thread_count u32
//             | total_intervals varu64 | total_log_bytes varu64
//
// v4 bound five pipeline knobs (all 1 here, the defaults they shipped with)
// that v5 dropped; the current reader must refuse the record as an
// unsupported version, like every older one.
#pragma once

#include "common/bytes.h"
#include "offline/journal.h"

namespace sword::offline {

inline Bytes EncodeV4JournalHeader(const JournalHeader& h) {
  ByteWriter payload;
  payload.PutU8(4);
  payload.PutU32(h.shard_index);
  payload.PutU32(h.shard_count);
  payload.PutU8(h.engine);
  for (int knob = 0; knob < 5; knob++) payload.PutU8(1);
  payload.PutU8(h.salvage);
  payload.PutVarU64(h.solver_step_budget);
  payload.PutVarU64(h.bucket_deadline_ms);
  payload.PutVarU64(h.max_tree_bytes);
  payload.PutU32(h.thread_count);
  payload.PutVarU64(h.total_intervals);
  payload.PutVarU64(h.total_log_bytes);
  const Bytes& p = payload.buffer();
  ByteWriter file;
  file.PutU32(kJournalHeaderMagic);
  file.PutVarU64(p.size());
  file.PutU64(Fnv1a64(p.data(), p.size()));
  file.PutRaw(p.data(), p.size());
  return file.buffer();
}

}  // namespace sword::offline
