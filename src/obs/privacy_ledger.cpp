#include "obs/privacy_ledger.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>

#include "linalg/common.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/party.h"

namespace ppml::obs {

namespace {

// splitmix64 finisher: cheap, full-avalanche — good enough for keying a
// table on 64-bit seed material (collision odds over ~1e5 pads ~ 1e-10).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

// Fingerprint accumulation: one multiply + rotate per word. Fingerprints
// only distinguish two concrete plaintexts under the same pad (an audit
// equality check, not an adversarial hash), but they sit on the hot
// masking path next to the ChaCha expansion — mix64 per element would be
// a measurable fraction of the work being audited.
std::uint64_t fp_accumulate(std::uint64_t h, std::uint64_t w) {
  h ^= w;
  h *= 0x9E3779B97F4A7C15ULL;
  return (h << 27) | (h >> 37);
}

// Word i feeds chain i mod 4, so four multiply chains overlap instead of
// one running at multiply latency: next to the vectorized keystream, one
// chain alone would use most of the ledger's few-percent overhead budget
// (bench/crypto_overhead). Order- and bit-sensitive (the chains start from
// distinct states and are folded in a fixed order); the final mix64 chain
// avalanches the tail. The four chain states are named locals, not an array
// indexed in an inner loop: an optimizer that keeps that loop rolled would
// keep the states in memory and add a store-to-load round trip to every
// multiply.
template <typename Word>
std::uint64_t fp_chains(std::uint64_t seed, std::span<const Word> words) {
  std::uint64_t h0 = seed, h1 = seed + 1, h2 = seed + 2, h3 = seed + 3;
  const auto word = [&](std::size_t i) {
    return std::bit_cast<std::uint64_t>(words[i]);
  };
  std::size_t i = 0;
  for (; i + 4 <= words.size(); i += 4) {
    h0 = fp_accumulate(h0, word(i));
    h1 = fp_accumulate(h1, word(i + 1));
    h2 = fp_accumulate(h2, word(i + 2));
    h3 = fp_accumulate(h3, word(i + 3));
  }
  if (i < words.size()) h0 = fp_accumulate(h0, word(i++));
  if (i < words.size()) h1 = fp_accumulate(h1, word(i++));
  if (i < words.size()) h2 = fp_accumulate(h2, word(i++));
  std::uint64_t out = words.size();
  for (const std::uint64_t chain : {h0, h1, h2, h3}) out = mix64(out ^ chain);
  return out;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

const char* clear_kind_name(ClearKind kind) {
  switch (kind) {
    case ClearKind::kDhPublic: return "dh_public";
    case ClearKind::kShamirShare: return "shamir_share";
    case ClearKind::kAggregate: return "aggregate";
  }
  return "unknown";
}

PrivacyLedger::PrivacyLedger(std::size_t pad_capacity)
    : slots_(round_up_pow2(pad_capacity)) {
  slot_mask_ = slots_.size() - 1;
}

std::uint64_t PrivacyLedger::pad_key(std::uint64_t pad_seed, std::size_t round,
                                     std::size_t endpoint) {
  return combine(combine(mix64(pad_seed), round), endpoint);
}

std::uint64_t PrivacyLedger::fingerprint(std::span<const double> values) {
  return fp_chains(0x517CC1B727220A95ULL, values);
}

std::uint64_t PrivacyLedger::fingerprint_words(
    std::span<const std::uint64_t> words) {
  return fp_chains(0x2545F4914F6CDD1DULL, words);
}

std::uint64_t PrivacyLedger::combine(std::uint64_t h, std::uint64_t next) {
  return mix64(h ^ mix64(next));
}

void PrivacyLedger::record_violation(const char* kind, std::string detail,
                                     int party) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    violations_.push_back(Violation{kind, detail, party});
  }
  count("privacy.violations");
  flight_event(FlightEventKind::kMark, std::string("privacy.") + kind + " " + detail,
               0.0, 0, party);
}

void PrivacyLedger::note_pad_use(std::uint64_t key, std::uint64_t value_fp,
                                 int party, int peer, std::size_t round,
                                 const char* site) {
  pads_recorded_.fetch_add(1, std::memory_order_relaxed);
  if (key < 2) key += 2;          // 0 = empty, 1 = claim in progress
  if (value_fp == 0) value_fp = 1;
  if (overflow_.load(std::memory_order_relaxed)) {
    pads_unchecked_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t start = static_cast<std::size_t>(key) & slot_mask_;
  const std::size_t max_probe = std::min<std::size_t>(slots_.size(), 256);
  for (std::size_t p = 0; p < max_probe; ++p) {
    Slot& slot = slots_[(start + p) & slot_mask_];
    std::uint64_t k = slot.key.load(std::memory_order_acquire);
    for (;;) {
      if (k == 0) {
        std::uint64_t expected = 0;
        if (slot.key.compare_exchange_strong(expected, 1,
                                             std::memory_order_acq_rel)) {
          // Claimed: publish the payload before the key (flight-recorder
          // stamp protocol) so a concurrent reader of this key never sees
          // a half-written fingerprint.
          slot.value_fp.store(value_fp, std::memory_order_relaxed);
          slot.key.store(key, std::memory_order_release);
          pads_distinct_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        k = expected;
        continue;
      }
      if (k == 1) {  // another writer mid-publish — spin, it is two stores
        k = slot.key.load(std::memory_order_acquire);
        continue;
      }
      break;
    }
    if (k != key) continue;  // different pad hashed here — probe on
    if (slot.value_fp.load(std::memory_order_relaxed) == value_fp) {
      // Same pad, same plaintext: deterministic re-masking (speculative
      // re-execution, identical retransmit). Counted, not a violation.
      benign_replays_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::string detail = "party " + std::to_string(party) + " edge (" +
                         std::to_string(party) + "," + std::to_string(peer) +
                         ") round " + std::to_string(round) + " site " + site;
    record_violation("pad_reuse", detail, party);
    PPML_CHECK(false,
               "privacy ledger: one-time pad reused on two different value "
               "vectors — " + detail);
  }
  overflow_.store(true, std::memory_order_relaxed);
  pads_unchecked_.fetch_add(1, std::memory_order_relaxed);
}

void PrivacyLedger::note_masks(std::int64_t streams) {
  std::lock_guard<std::mutex> lock(mutex_);
  parties_[current_party()].masks += streams;
}

void PrivacyLedger::note_contribution(std::int64_t values, std::int64_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PartyTally& t = parties_[current_party()];
    t.contributions += 1;
    t.masked_values += values;
    t.masked_bytes += bytes;
  }
  count("privacy.masked.values", values);
  count("privacy.masked.bytes", bytes);
}

void PrivacyLedger::note_reconstruction() {
  std::lock_guard<std::mutex> lock(mutex_);
  parties_[current_party()].reconstructions += 1;
}

void PrivacyLedger::note_cleartext(ClearKind kind, std::int64_t values,
                                   std::int64_t bytes) {
  note_cleartext_for(current_party(), kind, values, bytes);
}

void PrivacyLedger::note_cleartext_for(int party, ClearKind kind,
                                       std::int64_t values,
                                       std::int64_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PartyTally& t = parties_[party];
    t.clear_values += values;
    t.clear_bytes += bytes;
    t.clear_by_kind[static_cast<std::size_t>(kind)] += values;
  }
  count("privacy.cleartext.values", values);
  count("privacy.cleartext.bytes", bytes);
}

void PrivacyLedger::note_round_allocated(std::size_t round) {
  rounds_allocated_.fetch_add(1, std::memory_order_relaxed);
  flight_event(FlightEventKind::kMark, "privacy.round_allocated",
               static_cast<double>(round));
}

void PrivacyLedger::refresh_margin_locked() {
  bool any = false;
  std::size_t margin = std::numeric_limits<std::size_t>::max();
  for (const auto& [seed, st] : sharings_) {
    if (st.threshold == 0) continue;
    any = true;
    std::size_t local = st.threshold;
    for (const auto& [pair, exposure] : st.pairs) {
      if (st.dropped.count(pair.first) != 0 ||
          st.dropped.count(pair.second) != 0)
        continue;
      const std::size_t exposed =
          std::min(exposure.holders.size(), st.threshold);
      local = std::min(local, st.threshold - exposed);
    }
    margin = std::min(margin, local);
  }
  if (any) gauge("privacy.shamir.exposure_margin", static_cast<double>(margin));
}

void PrivacyLedger::note_shares_dealt(std::uint64_t sharing_seed,
                                      std::size_t seeds, std::size_t holders,
                                      std::size_t threshold) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SharingState& st = sharings_[sharing_seed];
    st.threshold = threshold;
    st.holders = holders;
    st.seeds_dealt += seeds;
    st.shares_dealt += seeds * holders;
    refresh_margin_locked();
  }
  count("privacy.shamir.shares_dealt",
        static_cast<std::int64_t>(seeds * holders));
}

void PrivacyLedger::note_party_dropped(std::uint64_t sharing_seed,
                                       std::size_t party) {
  std::lock_guard<std::mutex> lock(mutex_);
  sharings_[sharing_seed].dropped.insert(party);
  refresh_margin_locked();
}

void PrivacyLedger::note_share_revealed(std::uint64_t sharing_seed,
                                        std::size_t owner, std::size_t peer,
                                        std::size_t holder) {
  std::string trip;
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SharingState& st = sharings_[sharing_seed];
    const auto key = std::minmax(owner, peer);
    PairExposure& exposure = st.pairs[{key.first, key.second}];
    fresh = exposure.holders.insert(holder).second;
    if (fresh) st.reveals += 1;
    refresh_margin_locked();
    const bool both_live = st.dropped.count(owner) == 0 &&
                           st.dropped.count(peer) == 0;
    if (both_live && st.threshold != 0 &&
        exposure.holders.size() >= st.threshold) {
      trip = "pair (" + std::to_string(key.first) + "," +
             std::to_string(key.second) + ") reached " +
             std::to_string(exposure.holders.size()) +
             " revealed shares (threshold " + std::to_string(st.threshold) +
             ") while both parties are live, sharing " + hex(sharing_seed);
    }
  }
  if (fresh) count("privacy.shamir.reveals");
  if (!trip.empty()) {
    record_violation("share_over_exposure", trip, static_cast<int>(owner));
    PPML_CHECK(false,
               "privacy ledger: Shamir share over-exposure — a live pair's "
               "seed became reconstructable: " + trip);
  }
}

void PrivacyLedger::note_seed_reconstructed(std::uint64_t sharing_seed,
                                            std::size_t owner,
                                            std::size_t peer) {
  std::lock_guard<std::mutex> lock(mutex_);
  SharingState& st = sharings_[sharing_seed];
  const auto key = std::minmax(owner, peer);
  PairExposure& exposure = st.pairs[{key.first, key.second}];
  if (!exposure.reconstructed) {
    exposure.reconstructed = true;
    st.seeds_reconstructed += 1;
  }
}

PrivacyLedger::Snapshot PrivacyLedger::snapshot() const {
  Snapshot snap;
  snap.pads_recorded = pads_recorded_.load(std::memory_order_relaxed);
  snap.pads_distinct = pads_distinct_.load(std::memory_order_relaxed);
  snap.benign_replays = benign_replays_.load(std::memory_order_relaxed);
  snap.pads_unchecked = pads_unchecked_.load(std::memory_order_relaxed);
  snap.pad_table_capacity = slots_.size();
  snap.pad_table_overflow = overflow_.load(std::memory_order_relaxed);
  snap.rounds_allocated = rounds_allocated_.load(std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mutex_);
  snap.parties = parties_;
  snap.violations = violations_;
  snap.sharings.reserve(sharings_.size());
  for (const auto& [seed, st] : sharings_) {
    SharingSnapshot s;
    s.sharing_seed = seed;
    s.threshold = st.threshold;
    s.holders = st.holders;
    s.seeds_dealt = st.seeds_dealt;
    s.shares_dealt = st.shares_dealt;
    s.reveals = st.reveals;
    s.seeds_reconstructed = st.seeds_reconstructed;
    s.dropped.assign(st.dropped.begin(), st.dropped.end());
    s.min_live_margin = st.threshold;
    for (const auto& [pair, exposure] : st.pairs) {
      if (st.dropped.count(pair.first) != 0 ||
          st.dropped.count(pair.second) != 0)
        continue;
      const std::size_t exposed =
          std::min(exposure.holders.size(), st.threshold);
      s.min_live_margin = std::min(s.min_live_margin,
                                   st.threshold - exposed);
    }
    snap.sharings.push_back(std::move(s));
  }
  return snap;
}

namespace {

JsonValue reconciliation_row(std::int64_t ledger_value,
                             std::int64_t counter_value) {
  JsonValue row = JsonValue::object();
  row.set("ledger", ledger_value);
  row.set("counter", counter_value);
  row.set("match", ledger_value == counter_value);
  return row;
}

}  // namespace

JsonValue privacy_report_json(const PrivacyLedger& ledger,
                              const MetricsRegistry* registry) {
  const PrivacyLedger::Snapshot snap = ledger.snapshot();

  JsonValue pads = JsonValue::object();
  pads.set("recorded", snap.pads_recorded);
  pads.set("distinct", snap.pads_distinct);
  pads.set("benign_replays", snap.benign_replays);
  pads.set("unchecked", snap.pads_unchecked);
  pads.set("table_capacity", snap.pad_table_capacity);
  pads.set("table_overflow", snap.pad_table_overflow);

  // Reconcile against the crypto.* counter shards: the ledger notes at the
  // same sites, with the same amounts, under the same ambient party scope
  // as the counter increments, so every row must match exactly.
  static const char* const kMasksCounter = "crypto.masks_generated";
  static const char* const kContribCounter = "crypto.masked_contributions";
  static const char* const kReconCounter = "crypto.shamir_reconstructions";

  std::set<int> party_ids;
  for (const auto& [party, tally] : snap.parties) party_ids.insert(party);
  if (registry != nullptr) {
    const auto shards = registry->party_counters();
    for (const char* name : {kMasksCounter, kContribCounter, kReconCounter}) {
      const auto it = shards.find(name);
      if (it == shards.end()) continue;
      for (const auto& [party, value] : it->second)
        if (value != 0) party_ids.insert(party);
    }
  }

  bool reconciled = true;
  JsonValue parties = JsonValue::array();
  for (int party : party_ids) {
    PrivacyLedger::PartyTally tally;
    const auto it = snap.parties.find(party);
    if (it != snap.parties.end()) tally = it->second;

    JsonValue row = JsonValue::object();
    row.set("party", party_label(party));
    row.set("masks", tally.masks);
    row.set("contributions", tally.contributions);
    row.set("masked_values", tally.masked_values);
    row.set("masked_bytes", tally.masked_bytes);
    row.set("reconstructions", tally.reconstructions);
    row.set("cleartext_values", tally.clear_values);
    row.set("cleartext_bytes", tally.clear_bytes);
    JsonValue by_kind = JsonValue::object();
    for (std::size_t k = 0; k < kClearKinds; ++k)
      by_kind.set(clear_kind_name(static_cast<ClearKind>(k)),
                  tally.clear_by_kind[k]);
    row.set("cleartext_by_kind", std::move(by_kind));

    if (registry != nullptr) {
      JsonValue rec = JsonValue::object();
      const std::int64_t masks = registry->party_counter(kMasksCounter, party);
      const std::int64_t contribs =
          registry->party_counter(kContribCounter, party);
      const std::int64_t recons = registry->party_counter(kReconCounter, party);
      rec.set(kMasksCounter, reconciliation_row(tally.masks, masks));
      rec.set(kContribCounter, reconciliation_row(tally.contributions,
                                                  contribs));
      rec.set(kReconCounter, reconciliation_row(tally.reconstructions,
                                                recons));
      reconciled = reconciled && tally.masks == masks &&
                   tally.contributions == contribs &&
                   tally.reconstructions == recons;
      row.set("reconciliation", std::move(rec));
    }
    parties.push(std::move(row));
  }

  JsonValue sharings = JsonValue::array();
  for (const auto& s : snap.sharings) {
    JsonValue row = JsonValue::object();
    row.set("sharing_seed", hex(s.sharing_seed));
    row.set("threshold", s.threshold);
    row.set("holders", s.holders);
    row.set("seeds_dealt", s.seeds_dealt);
    row.set("shares_dealt", s.shares_dealt);
    row.set("reveals", s.reveals);
    row.set("seeds_reconstructed", s.seeds_reconstructed);
    JsonValue dropped = JsonValue::array();
    for (std::size_t d : s.dropped) dropped.push(d);
    row.set("dropped", std::move(dropped));
    row.set("min_live_margin", s.min_live_margin);
    sharings.push(std::move(row));
  }

  JsonValue violations = JsonValue::array();
  for (const auto& v : snap.violations) {
    JsonValue row = JsonValue::object();
    row.set("kind", v.kind);
    row.set("party", v.party);
    row.set("detail", v.detail);
    violations.push(std::move(row));
  }

  JsonValue report = JsonValue::object();
  report.set("pads", std::move(pads));
  report.set("serving_rounds_allocated", snap.rounds_allocated);
  report.set("parties", std::move(parties));
  report.set("shamir", std::move(sharings));
  report.set("violations", std::move(violations));
  report.set("reconciled", reconciled);

  JsonValue root = JsonValue::object();
  root.set("privacy_report", std::move(report));
  return root;
}

bool privacy_reconciled(const PrivacyLedger& ledger,
                        const MetricsRegistry* registry) {
  if (registry == nullptr) return true;
  const PrivacyLedger::Snapshot snap = ledger.snapshot();
  std::set<int> party_ids;
  for (const auto& [party, tally] : snap.parties) party_ids.insert(party);
  const auto shards = registry->party_counters();
  for (const char* name : {"crypto.masks_generated",
                           "crypto.masked_contributions",
                           "crypto.shamir_reconstructions"}) {
    const auto it = shards.find(name);
    if (it == shards.end()) continue;
    for (const auto& [party, value] : it->second)
      if (value != 0) party_ids.insert(party);
  }
  for (int party : party_ids) {
    PrivacyLedger::PartyTally tally;
    const auto it = snap.parties.find(party);
    if (it != snap.parties.end()) tally = it->second;
    if (tally.masks != registry->party_counter("crypto.masks_generated",
                                               party) ||
        tally.contributions !=
            registry->party_counter("crypto.masked_contributions", party) ||
        tally.reconstructions !=
            registry->party_counter("crypto.shamir_reconstructions", party))
      return false;
  }
  return true;
}

}  // namespace ppml::obs
