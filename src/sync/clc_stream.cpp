#include "sync/clc_stream.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "benchkit/metrics.hpp"
#include "common/expect.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sync/clc_kernel.hpp"
#include "trace/edge_rules.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_io_error.hpp"

namespace chronosync {

namespace {

/// Fixed-size blocks of T shared through one free list by every BlockQueue
/// drawing from the pool.  Blocks live as long as the pool, so the per-rank
/// windows allocate nothing in the steady state, and their memory peaks with
/// all ranks' windows together — not with the sum of each rank's own peak,
/// as per-rank buffers that keep their capacity would.
template <class T>
class BlockPool {
 public:
  static constexpr std::size_t kBlockSize = 512;  ///< elements per block

  T* get() {
    if (free_.empty()) {
      blocks_.push_back(std::make_unique<T[]>(kBlockSize));
      return blocks_.back().get();
    }
    T* block = free_.back();
    free_.pop_back();
    return block;
  }
  void put(T* block) { free_.push_back(block); }

 private:
  std::vector<std::unique_ptr<T[]>> blocks_;
  std::vector<T*> free_;
};

/// FIFO over blocks from a BlockPool; an empty queue holds no block.
/// Indices count from the front.
template <class T>
class BlockQueue {
  static constexpr std::size_t kB = BlockPool<T>::kBlockSize;

 public:
  explicit BlockQueue(BlockPool<T>& pool) : pool_(&pool) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const T& front() const { return (*this)[0]; }
  T& operator[](std::size_t i) { return at(head_ + i); }
  const T& operator[](std::size_t i) const { return at(head_ + i); }

  void push_back(const T& v) { append(1)[0] = v; }
  /// Appends up to n elements, as many as the tail block has room for, and
  /// returns them for the caller to fill.
  std::span<T> append(std::size_t n) {
    const std::size_t k = head_ + size_;
    if (k == blocks_.size() * kB) blocks_.push_back(pool_->get());
    const std::size_t m = std::min(n, kB - k % kB);
    size_ += m;
    return {&at(k), m};
  }
  /// Drops the first n elements, returning emptied blocks to the pool.
  void pop_front(std::size_t n = 1) {
    head_ += n;
    size_ -= n;
    if (size_ != 0 && head_ < kB) return;  // still inside the front block
    const std::size_t done = size_ == 0 ? blocks_.size() : head_ / kB;
    for (std::size_t b = 0; b < done; ++b) pool_->put(blocks_[b]);
    blocks_.erase(blocks_.begin(), blocks_.begin() + static_cast<std::ptrdiff_t>(done));
    head_ = size_ == 0 ? 0 : head_ % kB;
  }

 private:
  T& at(std::size_t k) const { return blocks_[k / kB][k % kB]; }

  BlockPool<T>* pool_;
  /// In queue order.  A queue spans a few hundred blocks at most, so
  /// dropping them from the front is cheap.
  std::vector<T*> blocks_;
  std::size_t head_ = 0;  ///< front element's index in blocks_.front()
  std::size_t size_ = 0;
};

/// Pairing state of one point-to-point message.  Entries are created when an
/// endpoint's chunk is *read* (so processability can distinguish "send not
/// yet seen" from "send later in the file") and die when the receive has
/// consumed the edge.  A send whose receive never comes (a trace cut
/// mid-run) keeps its entry until the run ends; its backward hold is released
/// at the horizon by sweep_and_emit.
struct MsgState {
  Time send_lc = 0.0;
  Rank send_rank = -1;
  std::uint32_t send_seq = 0;
  bool send_registered = false;
  bool send_processed = false;
  bool recv_registered = false;
  bool recv_dropped = false;  ///< receive went ahead unconstrained (horizon)
};

/// One processed CollBegin of an instance: enough to build the logical edges
/// and to apply backward caps to its retention entry later.
struct BeginRec {
  Rank rank = -1;
  std::uint32_t seq = 0;
  Time lc = 0.0;
};

/// One collective instance.  kind/root follow registration order (last one
/// wins); a registration that disagrees with them counts in kind_conflicts,
/// since then the order matters.  The instance closes when the read frontier
/// of every rank has passed last_ts + horizon: after that no further
/// participant can appear (under the horizon contract), so partiality and the
/// edge set are settled.
struct CollInst {
  CollectiveKind kind{};
  Rank root = -1;
  Time last_ts = -kTimeInfinity;
  std::vector<BeginRec> begins;  ///< processed begins, processing order (recycled)
  std::uint32_t begins_registered = 0;
  std::uint32_t ends_registered = 0;
  std::uint32_t ends_processed = 0;
  bool closed = false;
  bool root_end_seen = false;  ///< a root end took its edges (edge_rules::end_takes_edges)
};

/// A processed event awaiting emission.  `lc` is the forward-pass value and
/// is never mutated: every backward sweep recomputes candidate values from
/// scratch, so emitted timestamps are independent of sweep/batch timing.
struct Pending {
  Time ts = 0.0;  ///< original local timestamp (horizon release checks)
  Time lc = 0.0;
  Duration jump = 0.0;
  Time cap = kTimeInfinity;
  std::int64_t id = -1;  ///< msg_id for sends (hold-release lookups)
  std::uint8_t holds = 0;
  bool is_send = false;
};

/// A sweep's verdict on one retained entry: final, or the reason it is not.
enum Finality : char {
  kFinal,
  kWindowed,  ///< not B-safe yet, or an in-ramp value a successor may still clamp
  kHeld,      ///< an in-ramp entry whose caps may still change (holds > 0)
};

struct RankState {
  RankState(BlockPool<EdgeRecord>& records, BlockPool<Pending>& pending)
      : ahead(records), pend(pending) {}

  BlockQueue<EdgeRecord> ahead;  ///< read but not yet processed

  clc_kernel::RankClock clock;  ///< forward-pass state

  std::uint32_t seq = 0;  ///< events processed so far
  BlockQueue<Pending> pend;  ///< processed, not yet emitted (the retention window)
  std::uint32_t front_seq = 0;  ///< seq of pend.front(), and events emitted
  std::size_t sweep_trigger = 0;
  std::uint64_t base = 0;         ///< rank's first slot in the ts side file

  // Sweep scratch, reused across sweeps.
  std::vector<double> val;
  std::vector<Finality> fin;
};

/// Deletes a file when it goes out of scope, unless disarmed.  Not copyable,
/// so no two objects remove one file.
struct RemoveOnExit {
  explicit RemoveOnExit(std::string p) : path(std::move(p)) {}
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;
  ~RemoveOnExit() {
    if (armed) std::remove(path.c_str());
  }

  std::string path;
  bool armed = true;
};

/// The corrected-timestamp side file: one Time per event, at the event's
/// rank-major slot.  The correct pass writes it as entries become final and
/// the merge reads it back in file order.  Closed and removed when it goes
/// out of scope (the base's destructor runs after f's).
struct SideFile : RemoveOnExit {
  explicit SideFile(std::string p) : RemoveOnExit(std::move(p)) {
    f.open(path, std::ios::binary | std::ios::in | std::ios::out | std::ios::trunc);
    if (!f.good()) {
      throw TraceIoError(TraceIoErrorKind::Io, "cannot open spill file for writing: " + path);
    }
  }

  std::fstream f;
};

/// The correct pass: reads the input in frontier order, runs the forward pass
/// and the backward sweeps over the window, and writes each entry to the side
/// file once it is final.  Everything it holds is the window's, so it is
/// destroyed before the merge.
class StreamEngine {
 public:
  StreamEngine(std::istream& in, const TraceIndex& index, SideFile& side,
               const StreamClcOptions& opts)
      : index_(index),
        reader_(in, index_),
        opts_(opts),
        side_(side),
        seen_(index_.total_events),
        jumps_{opts_.clc, opts_.backward_window} {
    clc_kernel::require_valid(opts_.clc);
    CS_REQUIRE(opts_.horizon > 0.0, "horizon must be positive");
    CS_REQUIRE(opts_.backward_window > 0.0, "backward_window must be positive");
    CS_REQUIRE(opts_.emit_batch > 0, "emit_batch must be positive");

    ranks_.reserve(static_cast<std::size_t>(index_.meta.ranks()));
    std::uint64_t base = 0;
    for (const std::uint64_t events : index_.rank_events) {
      ranks_.emplace_back(record_blocks_, pending_blocks_).base = base;
      base += events;
    }
  }

  /// Runs the correct pass to its end; then the side file and the stats are complete.
  StreamClcStats run() {
    const std::uint64_t alloc0 = benchkit::allocation_totals().bytes;
    {
      CS_SPAN("clc.stream.correct");
      for (;;) {
        drain();
        if (all_done()) break;
        if (!reader_.eof()) {
          read_next_chunk();
          continue;
        }
        // Everything is read but some head is still blocked: the instance
        // closures implied by the (now infinite) read frontier may unblock
        // it; if not, the input's constraint graph is cyclic or dangling and
        // we force progress on the earliest blocked event.
        closure_scan();
        drain();
        if (all_done()) break;
        if (!drained_something_) force_one();
      }
      release_leftovers();
      for (Rank r = 0; r < index_.meta.ranks(); ++r) sweep_and_emit(r);
      for (const RankState& rs : ranks_) {
        CS_ENSURE(rs.pend.empty() && rs.ahead.empty(),
                  "streaming CLC failed to drain its window");
      }
    }
    CS_ENSURE(stats_.events == index_.total_events,
              "streaming CLC processed a different event count than the index");
    stats_.violations_repaired = jumps_.violations_repaired;
    stats_.max_jump = jumps_.max_jump;
    stats_.total_jump = jumps_.total.total();
    stats_.ramp_clamped = jumps_.ramp_clamped;
    const std::uint64_t alloc1 = benchkit::allocation_totals().bytes;

    if (obs::metrics_enabled()) {
      static obs::Counter& events = obs::counter("clc.events_processed");
      static obs::Counter& repaired = obs::counter("clc.violations_repaired");
      // The two windows' own high-water marks, which together explain
      // peak_resident_events (they need not peak at the same moment).
      static obs::Gauge& peak_ahead = obs::gauge("clc.stream.peak_ahead_events");
      static obs::Gauge& peak_pending = obs::gauge("clc.stream.peak_pending_events");
      // What keeps the retention window: summed over sweeps, the entries
      // each sweep left pending, by why its first non-final entry is not
      // final (Finality).
      static obs::Counter& pending_held = obs::counter("clc.stream.pending_held_events");
      static obs::Counter& pending_window = obs::counter("clc.stream.pending_window_events");
      static obs::Counter& correct_alloc = obs::counter("clc.stream.correct.alloc_bytes");
      static obs::Counter& repeated = obs::counter("clc.stream.repeated_ids");
      static obs::Counter& kind_conflicts = obs::counter("clc.stream.kind_conflicts");
      events.add(static_cast<std::int64_t>(stats_.events));
      repaired.add(static_cast<std::int64_t>(stats_.violations_repaired));
      peak_ahead.set(static_cast<double>(peak_ahead_));
      peak_pending.set(static_cast<double>(peak_pending_));
      pending_held.add(static_cast<std::int64_t>(pending_held_));
      pending_window.add(static_cast<std::int64_t>(pending_window_));
      correct_alloc.add(static_cast<std::int64_t>(alloc1 - alloc0));
      repeated.add(static_cast<std::int64_t>(stats_.repeated_ids));
      kind_conflicts.add(static_cast<std::int64_t>(stats_.kind_conflicts));
    }

    return stats_;
  }

 private:
  // -- read side --------------------------------------------------------------

  /// Reads the next chunk in frontier order, decoding it straight into its
  /// rank's read-ahead queue a block's room at a time.
  void read_next_chunk() {
    CS_SPAN("clc.stream.read");
    const Rank r = reader_.next();
    CS_ENSURE(r >= 0, "read_next_chunk called with all ranks at EOF");
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    while (reader_.left() > 0) {
      const std::span<EdgeRecord> room = rs.ahead.append(reader_.left());
      reader_.decode(room);
      for (const EdgeRecord& e : room) register_event(r, e);
      ahead_ += room.size();
    }
    peak_ahead_ = std::max(peak_ahead_, ahead_);
    stats_.peak_resident_events = std::max(stats_.peak_resident_events, ahead_ + pending_);
    closure_scan();
  }

  void register_event(Rank r, const EdgeRecord& e) {
    switch (e.type) {
      case EventType::Send: {
        see(e.id, 0);
        MsgState& m = msgs_[e.id];
        if (m.recv_dropped) ++stats_.horizon_dropped;  // edge already abandoned
        m.send_registered = true;
        m.send_rank = r;
        break;
      }
      case EventType::Recv:
        see(e.id, 1);
        msgs_[e.id].recv_registered = true;
        break;
      case EventType::CollBegin:
      case EventType::CollEnd: {
        edge_rules::IdTable<CollInst>::Slot slot = colls_.probe(e.id);
        if (!slot.found()) {
          CollInst fresh;
          fresh.kind = e.coll;
          fresh.root = e.root;
          fresh.begins = take_begins();
          slot.insert(std::move(fresh));
        }
        CollInst& inst = slot.value();
        if (inst.closed) ++stats_.horizon_dropped;  // straggler past closure
        if (!edge_rules::same_collective(inst.kind, inst.root, e.coll, e.root)) {
          ++stats_.kind_conflicts;
        }
        inst.kind = e.coll;
        inst.root = e.root;
        inst.last_ts = std::max(inst.last_ts, e.local_ts);
        if (e.type == EventType::CollBegin) {
          ++inst.begins_registered;
        } else {
          ++inst.ends_registered;
        }
        break;
      }
      default:
        break;
    }
    stats_.peak_outstanding_msgs = std::max(stats_.peak_outstanding_msgs, msgs_.size());
  }

  /// Marks a message endpoint as read.  The frontier-order join pairs as the
  /// in-memory rank-major one only while no (msg_id, side) pair repeats:
  /// each repeat counts in repeated_ids, and so does the seen-set outgrowing
  /// its budget, which drops the set.
  void see(std::int64_t id, int side) {
    if (!seen_) return;
    if (!seen_->mark(id, side)) ++stats_.repeated_ids;
    if (seen_->over_budget()) {
      ++stats_.repeated_ids;
      seen_.reset();
    }
  }

  void closure_scan() {
    colls_.erase_if([&](std::int64_t, CollInst& inst) {
      if (!inst.closed && reader_.low() > inst.last_ts + opts_.horizon) inst.closed = true;
      if (!inst.closed || !instance_done(inst)) return false;
      release_instance(inst);
      return true;
    });
  }

  /// An empty begins vector for a new instance, with the capacity of a
  /// retired one when there is one.
  std::vector<BeginRec> take_begins() {
    if (free_begins_.empty()) return {};
    std::vector<BeginRec> v = std::move(free_begins_.back());
    free_begins_.pop_back();
    return v;
  }

  static bool instance_done(const CollInst& inst) {
    return inst.ends_processed == inst.ends_registered &&
           inst.begins.size() == inst.begins_registered;
  }

  /// Calls fn(begin) for every processed begin of `inst` whose logical edge
  /// enters rank r's end.
  template <class Fn>
  static void for_each_source(Rank r, const CollInst& inst, Fn&& fn) {
    edge_rules::for_each_source(inst.kind, inst.root, r, inst.root_end_seen, inst.begins,
                                [](const BeginRec& b) { return b.rank; }, fn);
  }

  /// Releases the holds of a retired instance's begins and recycles its
  /// begins vector; the caller then erases the instance.
  void release_instance(CollInst& inst) {
    for (const BeginRec& b : inst.begins) hold_release(b.rank, b.seq);
    inst.begins.clear();
    free_begins_.push_back(std::move(inst.begins));
  }

  /// Safety valve for malformed inputs: whatever pairing state survived the
  /// full drain can constrain nothing anymore, so free its holds.
  void release_leftovers() {
    colls_.erase_if([&](std::int64_t, CollInst& inst) {
      release_instance(inst);
      return true;
    });
  }

  // -- processing -------------------------------------------------------------

  /// Whether rank r has every event read and processed.
  bool rank_done(Rank r) const {
    return reader_.rank_eof(r) && ranks_[static_cast<std::size_t>(r)].ahead.empty();
  }

  bool all_done() const {
    for (Rank r = 0; r < index_.meta.ranks(); ++r) {
      if (!rank_done(r)) return false;
    }
    return true;
  }

  void drain() {
    drained_something_ = false;
    bool progress = true;
    while (progress) {
      progress = false;
      for (Rank r = 0; r < index_.meta.ranks(); ++r) {
        RankState& rs = ranks_[static_cast<std::size_t>(r)];
        while (!rs.ahead.empty() && head_processable(r, rs.ahead.front())) {
          process_head(r, /*force=*/false);
          progress = true;
          drained_something_ = true;
        }
      }
    }
  }

  void force_one() {
    Rank pick = -1;
    Time lowest = kTimeInfinity;
    for (Rank r = 0; r < index_.meta.ranks(); ++r) {
      const RankState& rs = ranks_[static_cast<std::size_t>(r)];
      if (rs.ahead.empty()) continue;
      if (pick < 0 || rs.ahead.front().local_ts < lowest) {
        pick = r;
        lowest = rs.ahead.front().local_ts;
      }
    }
    CS_ENSURE(pick >= 0, "force_one called with nothing left to process");
    process_head(pick, /*force=*/true);
    ++stats_.forced;
  }

  bool head_processable(Rank r, const EdgeRecord& e) {
    switch (e.type) {
      case EventType::Recv: {
        const MsgState* m = msgs_.find(e.id);
        if (m != nullptr && m->send_processed) return true;
        if (m != nullptr && m->send_registered) return false;  // send is coming
        return reader_.eof() || reader_.low() > e.local_ts + opts_.horizon;
      }
      case EventType::CollEnd: {
        const CollInst* inst = colls_.find(e.id);
        if (inst == nullptr) return true;  // retired instance straggler
        if (!edge_rules::end_takes_edges(inst->kind, inst->root, r, inst->root_end_seen)) {
          return true;
        }
        // Closure settles partiality and guarantees the begin set is
        // complete; all processed guarantees their forward values exist.
        return inst->closed && inst->begins.size() == inst->begins_registered;
      }
      default:
        return true;  // sends, begins, and local events never have incoming edges
    }
  }

  void process_head(Rank r, bool force) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const EdgeRecord e = rs.ahead.front();
    rs.ahead.pop_front();
    --ahead_;

    const Time t = e.local_ts;
    Time bound = -kTimeInfinity;
    Pending p;
    p.ts = t;
    CollInst* inst = nullptr;
    bool coll_edges = false;  // a collective end taking its logical edges
    bool p2p_edge = false;    // a receive taking its send's edge
    Rank send_rank = -1;
    std::uint32_t send_seq = 0;
    switch (e.type) {
      case EventType::Recv: {
        MsgState* m = msgs_.find(e.id);
        if (m != nullptr && m->send_processed) {
          const Duration l_min = index_.meta.min_latency(m->send_rank, r);
          bound = clc_kernel::eq1_bound(bound, m->send_lc, l_min);
          ++stats_.p2p_edges;
          p2p_edge = true;
          send_rank = m->send_rank;
          send_seq = m->send_seq;
        } else if (m != nullptr) {
          // Going ahead without the edge: the matching send (seen or future)
          // must neither expect a cap nor hold its emission for one.
          m->recv_dropped = true;
        } else if (!reader_.eof()) {
          msgs_[e.id].recv_dropped = true;
        }
        break;
      }
      case EventType::Send: {
        MsgState& m = msgs_[e.id];
        m.send_registered = true;  // forced paths may reach here unregistered
        m.send_rank = r;
        m.send_seq = rs.seq;
        p.is_send = true;
        p.id = e.id;
        // The receive will cap this send's backward motion; hold until the
        // cap arrives (or the horizon proves no receive is coming).
        p.holds = (m.recv_registered || !reader_.eof()) && !m.recv_dropped ? 1 : 0;
        break;
      }
      case EventType::CollBegin: {
        inst = colls_.find(e.id);
        if (inst != nullptr) {
          p.holds = 1;  // released when the instance's edges are all applied
          p.id = e.id;
        }
        break;
      }
      case EventType::CollEnd: {
        inst = colls_.find(e.id);
        if (inst != nullptr) {
          coll_edges = inst->closed && !force &&
                       !edge_rules::partial_instance(inst->begins_registered,
                                                     inst->ends_registered);
          if (coll_edges) {
            for_each_source(r, *inst, [&](const BeginRec& b) {
              bound = clc_kernel::eq1_bound(bound, b.lc, index_.meta.min_latency(b.rank, r));
              ++stats_.logical_edges;
            });
          }
        }
        break;
      }
      default:
        break;
    }

    const clc_kernel::Step step =
        clc_kernel::forward_step(rs.clock, t, bound, opts_.clc.forward_decay);
    const Time lc = step.lc;
    if (step.jump > 0.0) jumps_.add(r, step.jump);
    p.lc = lc;
    p.jump = step.jump;

    // Post-lc bookkeeping: caps flow backward from this event onto the
    // sources of the edges just applied (the in-memory backward pass's
    // clc_kernel::send_cap).
    if (p2p_edge) {
      const Duration l_min = index_.meta.min_latency(send_rank, r);
      cap_apply(send_rank, send_seq, clc_kernel::send_cap(lc, l_min));
      hold_release(send_rank, send_seq);
      msgs_.erase(e.id);
    }
    if (e.type == EventType::Send) {
      MsgState& m = msgs_[e.id];
      m.send_lc = lc;
      m.send_processed = true;
    }
    if (e.type == EventType::CollBegin && inst != nullptr) {
      inst->begins.push_back({r, rs.seq, lc});
    }
    if (e.type == EventType::CollEnd && inst != nullptr) {
      if (coll_edges) {
        for_each_source(r, *inst, [&](const BeginRec& b) {
          cap_apply(b.rank, b.seq, clc_kernel::send_cap(lc, index_.meta.min_latency(b.rank, r)));
        });
        inst->root_end_seen = inst->root_end_seen || r == inst->root;
      }
      ++inst->ends_processed;
      if (inst->closed && instance_done(*inst)) {
        release_instance(*inst);
        colls_.erase(e.id);
      }
    }

    ++rs.seq;
    ++stats_.events;
    rs.pend.push_back(p);
    ++pending_;
    peak_pending_ = std::max(peak_pending_, pending_);
    if (rs.pend.size() >= std::max(opts_.emit_batch, rs.sweep_trigger)) sweep_and_emit(r);
  }

  void cap_apply(Rank r, std::uint32_t seq, Time cap) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    if (seq < rs.front_seq) {
      // The target was already emitted.  Only out-of-ramp entries can be
      // emitted while their cap is still pending (in-ramp finality demands
      // holds == 0), and a cap on an out-of-ramp entry is a no-op in the
      // in-memory backward pass too — its value is the forward value either
      // way.  Safe to ignore.
      return;
    }
    Pending& p = rs.pend[seq - rs.front_seq];
    p.cap = std::min(p.cap, cap);
  }

  void hold_release(Rank r, std::uint32_t seq) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    if (seq < rs.front_seq) return;  // already emitted (cap was a no-op)
    Pending& p = rs.pend[seq - rs.front_seq];
    if (p.holds > 0) --p.holds;
  }

  // -- backward amortization & emission ---------------------------------------

  /// Recomputes backward-amortized values over the retention window (newest to
  /// oldest), decides which entries are *final* — provably equal to what the
  /// in-memory backward pass (with the window clamp) would produce no matter
  /// what is processed later — and emits the maximal final prefix.
  ///
  /// Finality rules (B = backward_window, prev_lc = newest forward value):
  ///   * jump events are final (the backward pass never moves them);
  ///   * an entry with lc < prev_lc - B is "B-safe": every future jump's
  ///     clamped ramp (window <= B) starts at >= prev_lc and cannot reach it;
  ///   * a B-safe entry outside every retained ramp keeps its forward value;
  ///   * a B-safe in-ramp entry is final once its caps can no longer change
  ///     (holds == 0) and its candidate value cannot be clamped by any
  ///     *future* successor: candidate <= succ_lb, a lower bound built from
  ///     final values (exact), non-final forward values (final >= forward),
  ///     and prev_lc for everything not yet processed — or the entire newer
  ///     suffix is final with the rank fully processed, making the successor
  ///     chain itself exact.
  void sweep_and_emit(Rank r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const std::size_t n = rs.pend.size();
    if (n == 0) return;
    CS_SPAN("clc.stream.sweep");

    rs.val.resize(n);
    rs.fin.resize(n);
    const bool rank_final = rank_done(r);

    if (!opts_.clc.backward_amortization) {
      for (std::size_t i = 0; i < n; ++i) {
        rs.val[i] = rs.pend[i].lc;
        rs.fin[i] = kFinal;
      }
    } else {
      clc_kernel::BackwardSweep sweep(opts_.clc, opts_.backward_window);
      double succ_lb = rank_final ? kTimeInfinity : rs.clock.prev_lc;
      bool suffix_exact = rank_final;
      for (std::size_t i = n; i-- > 0;) {
        Pending& p = rs.pend[i];
        // Horizon release of send holds: once the read frontier proves no
        // receive is coming, the cap is settled at +inf.
        if (p.holds > 0 && p.is_send) {
          const MsgState* m = msgs_.find(p.id);
          if ((m == nullptr || !m->recv_registered || m->recv_dropped) &&
              reader_.low() > p.ts + opts_.horizon) {
            p.holds = 0;
          }
        }

        const clc_kernel::BackwardSweep::Swept s =
            sweep.step(p.lc, p.jump, [&] { return p.cap; });
        rs.val[i] = s.value;
        if (p.jump > 0.0) {
          rs.fin[i] = kFinal;
          succ_lb = std::min(succ_lb, p.lc);
          continue;
        }
        const bool b_safe = rank_final || p.lc < rs.clock.prev_lc - opts_.backward_window;
        Finality fin = b_safe ? kFinal : kWindowed;
        if (s.in_ramp && p.holds > 0) {
          fin = kHeld;
        } else if (s.in_ramp && b_safe && !(s.candidate <= succ_lb || suffix_exact)) {
          fin = kWindowed;
        }
        rs.fin[i] = fin;
        suffix_exact = suffix_exact && fin == kFinal;
        succ_lb = std::min(succ_lb, fin == kFinal ? s.value : p.lc);
      }
    }

    std::size_t k = 0;
    while (k < n && rs.fin[k] == kFinal) ++k;
    if (k < n) (rs.fin[k] == kHeld ? pending_held_ : pending_window_) += n - k;
    if (k > 0) {
      side_.f.seekp(static_cast<std::streamoff>((rs.base + rs.front_seq) * sizeof(Time)));
      side_.f.write(reinterpret_cast<const char*>(rs.val.data()),
                    static_cast<std::streamsize>(k * sizeof(Time)));
      if (!side_.f.good()) {
        throw TraceIoError(TraceIoErrorKind::Io, "spill write failed: " + side_.path);
      }
      rs.pend.pop_front(k);
      rs.front_seq += static_cast<std::uint32_t>(k);
      pending_ -= k;
      rs.sweep_trigger = rs.pend.size() + opts_.emit_batch;
    } else {
      // Nothing was emittable: back off so a long-blocked window does not
      // degenerate into a re-sweep per appended event.
      rs.sweep_trigger = rs.pend.size() * 2 + opts_.emit_batch;
    }
  }

  const TraceIndex& index_;
  FrontierReader reader_;
  StreamClcOptions opts_;
  SideFile& side_;
  BlockPool<EdgeRecord> record_blocks_;
  BlockPool<Pending> pending_blocks_;
  std::vector<RankState> ranks_;
  edge_rules::IdTable<MsgState> msgs_;
  std::optional<edge_rules::SeenEndpoints> seen_;  ///< dropped past its budget
  edge_rules::IdTable<CollInst> colls_;
  std::vector<std::vector<BeginRec>> free_begins_;  ///< retired instances' begins, emptied
  StreamClcStats stats_;
  clc_kernel::JumpTally jumps_;  ///< the jump statistics of stats_
  bool drained_something_ = false;
  std::size_t ahead_ = 0;    ///< events in the read-ahead queues
  std::size_t pending_ = 0;  ///< events in the retention windows
  std::size_t peak_ahead_ = 0;
  std::size_t peak_pending_ = 0;
  std::uint64_t pending_held_ = 0;    ///< see clc.stream.pending_held_events
  std::uint64_t pending_window_ = 0;  ///< see clc.stream.pending_window_events
};

/// Second pass over the input: re-reads every chunk in file order (its CRC
/// and head checked against the index again), rewrites only the local_ts
/// deltas from the corrected timestamps in the side file, copies every
/// other field's bytes, and appends the chunk whole to out_path + ".tmp".
/// The output keeps the input's chunk layout.  The temporary is renamed
/// into place only after finish() sealed the footer, and removed on any
/// error, so a failed merge leaves neither a half-written trace under the
/// output name nor the temporary behind.  No chunk's work depends on
/// another's.
void merge_output(std::istream& raw_in, const TraceIndex& index, SideFile& side,
                  const std::string& out_path) {
  CS_SPAN("clc.stream.merge");
  side.f.flush();
  side.f.seekg(0);

  RemoveOnExit tmp{out_path + ".tmp"};
  std::ofstream outf(tmp.path, std::ios::binary | std::ios::trunc);
  if (!outf.good()) {
    throw TraceIoError(TraceIoErrorKind::Io, "cannot open trace file for writing: " + tmp.path);
  }
  {
    TraceWriter writer(outf, index.meta);
    ChunkReader merge_reader(raw_in, index);
    std::vector<Time> ts;
    std::vector<std::uint8_t> events;
    // File order is rank-major (the writer enforces it), as are the side
    // file's slots, so each chunk's timestamps are the next ref.count.
    for (const ChunkRef& ref : index.chunks) {
      ts.resize(ref.count);
      const auto bytes = static_cast<std::streamsize>(ts.size() * sizeof(Time));
      side.f.read(reinterpret_cast<char*>(ts.data()), bytes);
      if (side.f.gcount() != bytes) {
        throw TraceIoError(TraceIoErrorKind::Io, "spill read failed: " + side.path);
      }
      merge_reader.read_retimed(ref, ts, events);
      writer.append_chunk(ref.rank, ref.count, events);
    }
    writer.finish();
  }
  outf.close();
  if (!outf.good()) {
    throw TraceIoError(TraceIoErrorKind::Io, "trace write failed: " + tmp.path);
  }
  if (std::rename(tmp.path.c_str(), out_path.c_str()) != 0) {
    throw TraceIoError(TraceIoErrorKind::Io,
                       "cannot move corrected trace into place: " + out_path);
  }
  tmp.armed = false;
}

}  // namespace

StreamClcStats clc_stream_file(const std::string& in_path, const std::string& out_path,
                               const StreamClcOptions& options) {
  std::ifstream in = open_trace_file(in_path);
  // One sequential validation pass: any input defect — bad CRC, missing
  // footer, reordered chunks — throws here, before any output exists.
  const TraceIndex index = index_trace_v2(in);
  CS_SPAN("clc.stream");
  SideFile side(out_path + ".ts-spill");
  // The engine is a temporary: the window, the pairing tables and the sweep
  // scratch go with it, so the merge's buffers reuse their memory instead of
  // adding to its peak.
  const StreamClcStats stats = StreamEngine(in, index, side, options).run();
  const std::uint64_t alloc0 = benchkit::allocation_totals().bytes;
  merge_output(in, index, side, out_path);
  if (obs::metrics_enabled()) {
    static obs::Counter& merge_alloc = obs::counter("clc.stream.merge.alloc_bytes");
    merge_alloc.add(static_cast<std::int64_t>(benchkit::allocation_totals().bytes - alloc0));
  }
  return stats;
}

}  // namespace chronosync
