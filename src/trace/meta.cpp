#include "trace/meta.h"

namespace sword::trace {

void IntervalMeta::Serialize(ByteWriter& w) const {
  w.PutVarU64(region);
  w.PutVarU64(parent_region);
  w.PutVarU64(phase);
  label.Serialize(w);
  w.PutVarU64(level);
  w.PutVarU64(lane);
  w.PutVarU64(data_begin);
  w.PutVarU64(data_size);
  w.PutVarU64(event_count);
  w.PutVarU64(lockset.size());
  for (uint32_t m : lockset) w.PutVarU64(m);
  w.PutVarU64(degradation_level);
  w.PutVarU64(degraded_dropped);
  w.PutVarU64(elided);
}

Status IntervalMeta::Deserialize(ByteReader& r, IntervalMeta* out) {
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->region));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->parent_region));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->phase));
  SWORD_RETURN_IF_ERROR(osl::Label::Deserialize(r, &out->label));
  uint64_t level, lane;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&level));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&lane));
  out->level = static_cast<uint32_t>(level);
  out->lane = static_cast<uint32_t>(lane);
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->data_begin));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->data_size));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->event_count));
  uint64_t n;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&n));
  out->lockset.clear();
  out->lockset.reserve(n);
  for (uint64_t i = 0; i < n; i++) {
    uint64_t m;
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&m));
    out->lockset.push_back(static_cast<uint32_t>(m));
  }
  uint64_t degradation_level;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&degradation_level));
  out->degradation_level = static_cast<uint32_t>(degradation_level);
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->degraded_dropped));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->elided));
  return Status::Ok();
}

std::string IntervalMeta::ToString() const {
  std::string out = "pid=" + std::to_string(region);
  out += " ppid=" +
         (parent_region == kNoParent ? std::string("-") : std::to_string(parent_region));
  out += " bid=" + std::to_string(phase);
  out += " offset=" + std::to_string(TableOffset());
  out += " span=" + std::to_string(TableSpan());
  out += " level=" + std::to_string(level);
  out += " data_begin=" + std::to_string(data_begin);
  out += " size=" + std::to_string(data_size);
  out += " events=" + std::to_string(event_count);
  out += " label=" + label.ToString();
  return out;
}

void EncodeMetaHeader(ByteWriter& w, const MetaHeaderInfo& info) {
  w.PutU32(kMetaMagicV6);
  // Flags + seal signo as FIXED-offset bytes right after the magic
  // (kMetaFlagsOffset / kMetaSealSignoOffset) so the fatal-signal handler
  // can patch them in a pre-serialized image without running any encoder.
  w.PutU8(info.crash_sealed ? kMetaFlagCrashSealed : 0);
  w.PutU8(info.seal_signo);
  w.PutVarU64(info.thread_id);
  w.PutU8(info.log_format);
  // Record-time drop totals, outside-segment access drops, governor sheds,
  // pre-filter elision totals and the transition history all sit before the
  // interval records, so a torn tail cannot hide them.
  w.PutVarU64(info.events_dropped);
  w.PutVarU64(info.bytes_dropped);
  w.PutVarU64(info.accesses_dropped);
  w.PutVarU64(info.degraded_dropped);
  w.PutVarU64(info.elided_accesses);
  w.PutVarU64(info.elided_lost);
  const size_t n_transitions = info.transitions ? info.transitions->size() : 0;
  w.PutVarU64(n_transitions);
  for (size_t i = 0; i < n_transitions; ++i) {
    const DegradationTransition& t = (*info.transitions)[i];
    w.PutU8(t.level);
    w.PutU8(t.reason);
    w.PutVarU64(t.interval);
  }
  w.PutVarU64(info.record_count);
}

Bytes MetaFile::Encode() const {
  ByteWriter w;
  MetaHeaderInfo info;
  info.thread_id = thread_id;
  info.log_format = log_format;
  info.crash_sealed = crash_sealed;
  info.seal_signo = seal_signo;
  info.events_dropped = events_dropped;
  info.bytes_dropped = bytes_dropped;
  info.accesses_dropped = accesses_dropped;
  info.degraded_dropped = degraded_dropped;
  info.elided_accesses = elided_accesses;
  info.elided_lost = elided_lost;
  info.transitions = &transitions;
  info.record_count = intervals.size();
  EncodeMetaHeader(w, info);
  for (const auto& m : intervals) m.Serialize(w);
  return w.buffer();
}

Status MetaFile::Decode(const Bytes& data, MetaFile* out, bool salvage,
                        uint64_t* records_dropped) {
  if (records_dropped) *records_dropped = 0;
  ByteReader r(data);
  uint32_t magic;
  SWORD_RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic != kMetaMagicV6) {
    // "SWMF" (v1) and "SWM2".."SWM5" are retired versions, refused by name.
    const char last = static_cast<char>(magic & 0xff);
    if ((magic >> 8) == 0x53574d && (last == 'F' || (last >= '2' && last <= '5'))) {
      return Status::Unsupported(std::string("retired meta format SWM") + last);
    }
    return Status::Corrupt("bad meta magic");
  }
  uint8_t flags, signo;
  SWORD_RETURN_IF_ERROR(r.GetU8(&flags));
  SWORD_RETURN_IF_ERROR(r.GetU8(&signo));
  if (flags & ~kMetaFlagCrashSealed) {
    return Status::Corrupt("unknown meta flag bits");
  }
  out->crash_sealed = (flags & kMetaFlagCrashSealed) != 0;
  out->seal_signo = signo;
  uint64_t tid, n;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&tid));
  out->thread_id = static_cast<uint32_t>(tid);
  SWORD_RETURN_IF_ERROR(r.GetU8(&out->log_format));
  if (out->log_format == 1 || out->log_format == 2) {
    return Status::Unsupported("meta names retired log format v" +
                               std::to_string(out->log_format));
  }
  if (out->log_format != kTraceFormatV3) {
    return Status::Corrupt("unknown log format in meta file");
  }
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->events_dropped));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->bytes_dropped));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->accesses_dropped));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->degraded_dropped));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->elided_accesses));
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&out->elided_lost));
  uint64_t n_transitions;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&n_transitions));
  if (n_transitions > data.size()) {
    return Status::Corrupt("implausible transition count in meta file");
  }
  out->transitions.clear();
  out->transitions.reserve(n_transitions);
  for (uint64_t i = 0; i < n_transitions; ++i) {
    DegradationTransition t;
    SWORD_RETURN_IF_ERROR(r.GetU8(&t.level));
    SWORD_RETURN_IF_ERROR(r.GetU8(&t.reason));
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&t.interval));
    out->transitions.push_back(t);
  }
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&n));
  out->intervals.clear();
  out->intervals.reserve(n);
  for (uint64_t i = 0; i < n; i++) {
    IntervalMeta m;
    Status s = IntervalMeta::Deserialize(r, &m);
    if (!s.ok()) {
      if (!salvage) return s;
      // The interval list is written in order; a parse failure means the
      // file was cut mid-record. Everything before it is intact.
      if (records_dropped) *records_dropped = n - i;
      return Status::Ok();
    }
    out->intervals.push_back(std::move(m));
  }
  if (!r.AtEnd() && !salvage) return Status::Corrupt("trailing bytes in meta file");
  return Status::Ok();
}

}  // namespace sword::trace
