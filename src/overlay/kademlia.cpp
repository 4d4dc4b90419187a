#include "overlay/kademlia.hpp"

#include <algorithm>
#include <cassert>

#include "crypto/buffer.hpp"

namespace decentnet::overlay {

using kademlia_msg::FindNode;
using kademlia_msg::FindNodeReply;
using kademlia_msg::Store;

namespace {
Key default_id(net::NodeId addr) {
  crypto::ByteWriter w;
  w.str("kad-node").u64(addr.value);
  return w.sha256();
}

/// First slot of a sorted sparse bucket table whose index is >= `index`.
template <typename Slots>
auto first_slot_from(Slots& slots, int index) {
  return std::lower_bound(
      slots.begin(), slots.end(), index,
      [](const auto& s, int i) { return static_cast<int>(s.index) < i; });
}
}  // namespace

std::optional<std::string> KademliaConfig::validate() const {
  if (k == 0) return "KademliaConfig.k must be >= 1 (bucket size)";
  if (alpha == 0) return "KademliaConfig.alpha must be >= 1 (parallelism)";
  if (rpc_timeout <= 0) {
    return "KademliaConfig.rpc_timeout must be positive";
  }
  if (refresh_interval <= 0) {
    return "KademliaConfig.refresh_interval must be positive";
  }
  if (message_bytes == 0) {
    return "KademliaConfig.message_bytes must be nonzero (wire accounting)";
  }
  return std::nullopt;
}

KademliaNode::KademliaNode(net::Network& net, net::NodeId addr,
                           KademliaConfig config, std::optional<Key> id)
    // simulator_for/metrics_for: the node's timers and metric handles live
    // on the shard that owns its NodeId (the plain simulator()/metrics()
    // when the network is unsharded).
    : net_(net),
      sim_(net.simulator_for(addr)),
      addr_(addr),
      id_(id ? *id : default_id(addr)),
      config_(config),
      m_lookups_(net.metrics_for(addr).counter("overlay/kad_lookups")),
      m_rpcs_(net.metrics_for(addr).counter("overlay/kad_rpcs")),
      m_rpc_timeouts_(
          net.metrics_for(addr).counter("overlay/kad_rpc_timeouts")),
      m_path_len_(net.span_tracking()
                      ? &net.metrics_for(addr).histogram(
                            "overlay/lookup_path_len")
                      : nullptr) {
  if (const auto err = config_.validate()) {
    throw std::invalid_argument(*err);
  }
}

KademliaNode::~KademliaNode() {
  if (online_) leave();
}

void KademliaNode::join(const std::vector<Contact>& bootstrap) {
  net_.attach(addr_, this);
  online_ = true;
  for (const Contact& c : bootstrap) touch_contact(c);
  // Locate ourselves: populates buckets along the path to our own id.
  if (!bootstrap.empty()) {
    lookup(id_, [](LookupResult) {});
  }
  refresh_timer_ = sim_.schedule_periodic(
      config_.refresh_interval, config_.refresh_interval,
      [this] { refresh_buckets(); });
}

void KademliaNode::leave() {
  online_ = false;
  refresh_timer_.cancel();
  net_.detach(addr_);
  // Fail in-flight RPCs so outstanding lookups terminate promptly.
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [nonce, rpc] : pending) {
    rpc.timeout.cancel();
    rpc.on_done(false, nullptr);
  }
}

int KademliaNode::bucket_index(const Key& other) const {
  const int lz = id_.distance_to(other).leading_zero_bits();
  if (lz >= 256) return -1;  // ourselves
  return 255 - lz;
}

KademliaNode::Bucket* KademliaNode::find_bucket(int index) {
  const auto it = first_slot_from(buckets_, index);
  if (it == buckets_.end() || static_cast<int>(it->index) != index) {
    return nullptr;
  }
  return &it->bucket;
}

const KademliaNode::Bucket* KademliaNode::find_bucket(int index) const {
  return const_cast<KademliaNode*>(this)->find_bucket(index);
}

KademliaNode::Bucket& KademliaNode::bucket_for(int index) {
  const auto it = first_slot_from(buckets_, index);
  if (it != buckets_.end() && static_cast<int>(it->index) == index) {
    return it->bucket;
  }
  return buckets_.insert(it, BucketSlot{static_cast<std::uint16_t>(index), {}})
      ->bucket;
}

void KademliaNode::touch_contact(const Contact& c) {
  if (c.addr == addr_) return;
  const int idx = bucket_index(c.id);
  if (idx < 0) return;
  Bucket& bucket = bucket_for(idx);
  auto it = std::find(bucket.contacts.begin(), bucket.contacts.end(), c);
  if (it != bucket.contacts.end()) {
    // Move to most-recently-seen position.
    Contact moved = *it;
    moved.id = c.id;
    bucket.contacts.erase(it);
    bucket.contacts.push_back(moved);
    return;
  }
  if (bucket.contacts.size() < config_.k) {
    bucket.contacts.push_back(c);
    return;
  }
  if (config_.naive_eviction) {
    // Faulty-client behaviour: drop the oldest without verifying it.
    bucket.contacts.erase(bucket.contacts.begin());
    bucket.contacts.push_back(c);
    return;
  }
  evict_or_keep(idx, c);
}

void KademliaNode::evict_or_keep(int bucket_idx, const Contact& candidate) {
  Bucket& bucket = bucket_for(bucket_idx);
  // Remember the candidate; ping the least-recently-seen contact. If it
  // answers, it stays (Kademlia's bias toward long-lived peers); if not, the
  // candidate replaces it.
  if (bucket.replacement_cache.size() < config_.k) {
    if (std::find(bucket.replacement_cache.begin(),
                  bucket.replacement_cache.end(),
                  candidate) == bucket.replacement_cache.end()) {
      bucket.replacement_cache.push_back(candidate);
    }
  }
  if (bucket.contacts.empty() || bucket.eviction_ping_pending) return;
  bucket.eviction_ping_pending = true;
  const Contact lru = bucket.contacts.front();
  send_rpc(lru, make_request(/*find_value=*/false, id_),
           [this, bucket_idx, lru](bool ok, const net::Message*) {
             // Re-resolve: bucket insertions may have reallocated the table
             // while the ping was in flight.
             Bucket* const bp = find_bucket(bucket_idx);
             if (bp == nullptr) return;
             Bucket& b = *bp;
             b.eviction_ping_pending = false;
             auto it = std::find(b.contacts.begin(), b.contacts.end(), lru);
             if (ok) {
               if (it != b.contacts.end()) {
                 const Contact c = *it;
                 b.contacts.erase(it);
                 b.contacts.push_back(c);
               }
             } else {
               if (it != b.contacts.end()) b.contacts.erase(it);
               if (!b.replacement_cache.empty() &&
                   b.contacts.size() < config_.k) {
                 b.contacts.push_back(b.replacement_cache.back());
                 b.replacement_cache.pop_back();
               }
             }
           });
}

std::vector<Contact> KademliaNode::closest_contacts(const Key& target,
                                                    std::size_t count) const {
  // XOR geometry of the k-buckets: with j = bucket_index(target), a contact
  // in bucket i is at a distance from `target` whose top bit is below j when
  // i == j, exactly j when i < j, and exactly i when i > j. So the closest
  // contacts come from bucket j, then the union of the buckets below j, then
  // buckets j+1, j+2, ... in turn; only each group needs ordering, and the
  // walk stops once `count` are taken. Ids are assumed distinct (XOR
  // distances to a fixed target are then unique), which makes the result
  // exactly the first `count` of the whole table sorted by distance.
  std::vector<Contact> out;
  out.reserve(count);
  const auto by_distance = [&](const Contact& a, const Contact& b) {
    return a.id.distance_to(target) < b.id.distance_to(target);
  };
  // Append the closest contacts of slots [first, last), sorted, until
  // `count` are taken: `out`'s tail is a bounded max-heap, so `out` never
  // outgrows its reservation.
  const auto take = [&](auto first, auto last) {
    const std::size_t start = out.size();
    if (start == count) return;
    const auto group = [&] {
      return out.begin() + static_cast<std::ptrdiff_t>(start);
    };
    for (auto s = first; s != last; ++s) {
      for (const Contact& c : s->bucket.contacts) {
        if (out.size() < count) {
          out.push_back(c);
          std::push_heap(group(), out.end(), by_distance);
        } else if (by_distance(c, out[start])) {
          std::pop_heap(group(), out.end(), by_distance);
          out.back() = c;
          std::push_heap(group(), out.end(), by_distance);
        }
      }
    }
    std::sort_heap(group(), out.end(), by_distance);
  };
  const int j = bucket_index(target);
  auto above = first_slot_from(buckets_, j);
  const auto below_end = above;
  if (above != buckets_.end() && static_cast<int>(above->index) == j) {
    take(above, above + 1);
    ++above;
  }
  take(buckets_.begin(), below_end);
  for (; above != buckets_.end() && out.size() < count; ++above) {
    take(above, above + 1);
  }
  return out;
}

std::vector<Contact> KademliaNode::routing_table() const {
  std::vector<Contact> all;
  for (const BucketSlot& s : buckets_) {
    all.insert(all.end(), s.bucket.contacts.begin(), s.bucket.contacts.end());
  }
  return all;
}

std::size_t KademliaNode::routing_table_size() const {
  std::size_t n = 0;
  for (const BucketSlot& s : buckets_) n += s.bucket.contacts.size();
  return n;
}

sim::Shared<FindNode> KademliaNode::make_request(bool find_value,
                                                 const Key& target) const {
  return sim::Shared<FindNode>::make(
      FindNode{target, Contact{id_, addr_}, find_value});
}

std::uint64_t KademliaNode::send_rpc(
    const Contact& to, const sim::Shared<FindNode>& request,
    std::function<void(bool, const net::Message*)> cb, net::Span span) {
  const std::uint64_t nonce = next_nonce_++;
  if (!online_) {
    // Caller left the network mid-lookup: fail asynchronously so the lookup
    // engine unwinds without reentrancy surprises.
    sim_.post(0, [cb = std::move(cb)] { cb(false, nullptr); });
    return nonce;
  }
  m_rpcs_.add();
  PendingRpc rpc;
  rpc.on_done = std::move(cb);
  rpc.timeout = sim_.schedule(
      config_.rpc_timeout,
      [this, nonce, to] {
        auto it = pending_.find(nonce);
        if (it == pending_.end()) return;
        auto done = std::move(it->second.on_done);
        pending_.erase(it);
        m_rpc_timeouts_.add();
        fail_contact(to);
        done(false, nullptr);
      },
      "kad/rpc_timeout");
  pending_.emplace(nonce, std::move(rpc));
  net_.send(addr_, to.addr, request, config_.message_bytes, /*cookie=*/nonce,
            span);
  return nonce;
}

void KademliaNode::fail_contact(const Contact& c) {
  if (!config_.evict_on_failure) return;  // "questionable" contacts linger
  const int idx = bucket_index(c.id);
  if (idx < 0) return;
  Bucket* const b = find_bucket(idx);
  if (b == nullptr) return;
  const auto it = std::find(b->contacts.begin(), b->contacts.end(), c);
  if (it != b->contacts.end()) b->contacts.erase(it);
}

// ---------------------------------------------------------------------------
// Iterative lookup engine
// ---------------------------------------------------------------------------

struct KademliaNode::LookupState {
  enum class Status : std::uint8_t { New, InFlight, Done, Failed };
  struct Entry {
    Contact contact;
    Key distance;  // contact.id XOR target, computed once at insert
    Status status = Status::New;
    std::uint32_t depth = 1;  // 1 = from our table, d+1 = found at depth d
    std::size_t tries = 0;    // RPC attempts issued to this contact
  };

  Key target;
  bool want_value = false;
  LookupCallback cb;
  sim::SimTime started = 0;
  /// One FindNode allocation shared by every RPC of this lookup.
  sim::Shared<FindNode> request;
  std::vector<Entry> shortlist;  // kept sorted by XOR distance to target
  std::size_t in_flight = 0;
  std::size_t rpcs = 0;
  std::size_t timeouts = 0;
  bool finished = false;
  std::optional<std::string> value;
  /// Causal frontier: the span of the most recent reply (initially the
  /// lookup's root). New RPC rounds chain below it, so the lookup's
  /// request/reply alternation forms one tree whose depth is the RPC path
  /// length (request + reply per round => 2 hops per round).
  net::Span span;
  std::uint32_t max_span_depth = 0;

  bool contains(const Contact& c) const {
    return std::any_of(shortlist.begin(), shortlist.end(),
                       [&](const Entry& e) { return e.contact == c; });
  }

  void insert(const Contact& c, std::uint32_t depth) {
    if (contains(c)) return;
    Entry e{c, c.id.distance_to(target), Status::New, depth};
    const auto pos = std::lower_bound(
        shortlist.begin(), shortlist.end(), e,
        [](const Entry& a, const Entry& b) { return a.distance < b.distance; });
    shortlist.insert(pos, e);
  }
};

void KademliaNode::lookup(const Key& target, LookupCallback cb) {
  start_lookup(target, /*want_value=*/false, std::move(cb));
}

void KademliaNode::find_value(const Key& key, LookupCallback cb) {
  // Serve from local storage first, as the protocol specifies.
  const auto it = storage_.find(key);
  if (it != storage_.end()) {
    LookupResult r;
    r.found_value = true;
    r.value = it->second;
    cb(std::move(r));
    return;
  }
  start_lookup(key, /*want_value=*/true, std::move(cb));
}

void KademliaNode::store(const Key& key, std::string value,
                         std::function<void(std::size_t)> cb) {
  start_lookup(key, /*want_value=*/false,
               [this, key, value = std::move(value),
                cb = std::move(cb)](LookupResult r) {
                 std::size_t replicas = 0;
                 if (!r.closest.empty()) {
                   // One allocation replicated to all k holders.
                   const auto shared = sim::Shared<Store>::make(
                       Store{key, value, Contact{id_, addr_}});
                   const std::size_t bytes =
                       config_.message_bytes + value.size();
                   for (const Contact& c : r.closest) {
                     net_.send(addr_, c.addr, shared, bytes);
                     ++replicas;
                   }
                 }
                 if (replicas == 0) {
                   // No peers known: keep it locally so the data survives.
                   storage_[key] = value;
                 }
                 if (cb) cb(replicas);
               });
}

void KademliaNode::start_lookup(const Key& target, bool want_value,
                                LookupCallback cb) {
  auto state = std::make_shared<LookupState>();
  state->target = target;
  state->want_value = want_value;
  state->cb = std::move(cb);
  state->started = sim_.now();
  for (const Contact& c : closest_contacts(target, config_.k)) {
    state->insert(c, /*depth=*/1);
  }
  if (state->shortlist.empty()) {
    finish_lookup(state);
    return;
  }
  state->request = make_request(want_value, target);
  state->span = net_.new_span_root();
  lookup_step(state);
}

void KademliaNode::lookup_step(const std::shared_ptr<LookupState>& state) {
  if (state->finished) return;
  using Status = LookupState::Status;

  // Termination: the k closest non-failed entries are all Done.
  std::size_t considered = 0;
  bool all_done = true;
  bool any_new = false;
  for (const auto& e : state->shortlist) {
    if (e.status == Status::Failed) continue;
    if (considered++ >= config_.k) break;
    if (e.status != Status::Done) all_done = false;
    if (e.status == Status::New) any_new = true;
  }
  if ((all_done && considered > 0) || (!any_new && state->in_flight == 0)) {
    finish_lookup(state);
    return;
  }

  // Issue RPCs to the closest New entries, up to alpha in flight.
  for (auto& e : state->shortlist) {
    if (state->in_flight >= config_.alpha) break;
    if (e.status != Status::New) continue;
    // Only probe within the k closest non-failed window.
    e.status = Status::InFlight;
    ++e.tries;
    ++state->in_flight;
    ++state->rpcs;
    const Contact peer = e.contact;
    send_rpc(peer, state->request,
             [this, state, peer](bool ok, const net::Message* reply) {
               --state->in_flight;
               auto it = std::find_if(
                   state->shortlist.begin(), state->shortlist.end(),
                   [&](const LookupState::Entry& en) {
                     return en.contact == peer;
                   });
               if (!ok) {
                 ++state->timeouts;
                 if (it != state->shortlist.end()) {
                   // Retry-with-timeout: put the contact back in the New
                   // pool while it has attempts left; transient faults
                   // (loss bursts, latency spikes) should not strike
                   // reachable peers from the shortlist.
                   it->status = it->tries <= config_.rpc_retries
                                    ? Status::New
                                    : Status::Failed;
                 }
                 lookup_step(state);
                 return;
               }
               std::uint32_t depth = 1;
               if (it != state->shortlist.end()) {
                 it->status = Status::Done;
                 depth = it->depth;
               }
               // Advance the causal frontier: the next RPC round descends
               // from this reply's hop.
               state->span = reply->span;
               state->max_span_depth = std::max(
                   state->max_span_depth, net_.span_depth(reply->span.hop));
               const auto& r = net::payload_as<FindNodeReply>(*reply);
               if (state->want_value && r.has_value && !state->finished) {
                 state->value = r.value;
                 finish_lookup(state);
                 return;
               }
               for (const Contact& c : r.contacts) {
                 if (c.addr != addr_) state->insert(c, depth + 1);
               }
               lookup_step(state);
             },
             state->span);
  }
}

void KademliaNode::finish_lookup(const std::shared_ptr<LookupState>& state) {
  if (state->finished) return;
  state->finished = true;
  m_lookups_.add();
  if (m_path_len_) m_path_len_->record(state->max_span_depth);
  LookupResult r;
  r.found_value = state->value.has_value();
  r.value = state->value;
  r.rpcs_sent = state->rpcs;
  r.timeouts = state->timeouts;
  r.elapsed = sim_.now() - state->started;
  using Status = LookupState::Status;
  for (const auto& e : state->shortlist) {
    if (e.status == Status::Done && r.closest.size() < config_.k) {
      r.closest.push_back(e.contact);
      r.hops = std::max<std::size_t>(r.hops, e.depth);
    }
  }
  state->cb(std::move(r));
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void KademliaNode::handle_message(const net::Message& msg) {
  if (msg.is<FindNode>()) {
    const auto& req = net::payload_as<FindNode>(msg);
    touch_contact(req.sender);
    FindNodeReply reply;
    reply.sender = Contact{id_, addr_};
    reply.has_value = false;
    if (req.want_value) {
      const auto it = storage_.find(req.target);
      if (it != storage_.end()) {
        reply.has_value = true;
        reply.value = it->second;
      }
    }
    if (!reply.has_value) {
      reply.contacts = closest_contacts(req.target, config_.k);
      // Do not hand the requester itself back.
      std::erase_if(reply.contacts,
                    [&](const Contact& c) { return c.addr == msg.from; });
    }
    const std::size_t bytes =
        100 + 40 * reply.contacts.size() + reply.value.size();
    net_.send(addr_, msg.from, std::move(reply), bytes,
              /*cookie=*/msg.cookie, msg.span);
    return;
  }
  if (msg.is<FindNodeReply>()) {
    const auto& r = net::payload_as<FindNodeReply>(msg);
    // Per the Kademlia spec only the *responding* node earns a routing-table
    // slot; contacts merely mentioned in a reply must answer a query of ours
    // first. (Blind insertion would also let one poisoned reply trigger a
    // cascade of eviction probes.)
    touch_contact(r.sender);
    const auto it = pending_.find(msg.cookie);
    if (it == pending_.end()) return;  // late reply after timeout
    auto done = std::move(it->second.on_done);
    it->second.timeout.cancel();
    pending_.erase(it);
    done(true, &msg);
    return;
  }
  if (msg.is<Store>()) {
    const auto& s = net::payload_as<Store>(msg);
    touch_contact(s.sender);
    storage_[s.key] = s.value;
    return;
  }
}

void KademliaNode::refresh_buckets() {
  if (!online_) return;
  sim::Rng& rng = sim_.rng();
  // Slots are sorted by index, so iteration visits populated buckets in the
  // same ascending order (and draws the same rng sequence) as the old dense
  // scan that skipped empties.
  for (std::size_t slot = 0; slot < buckets_.size(); ++slot) {
    const std::size_t i = buckets_[slot].index;
    if (buckets_[slot].bucket.contacts.empty()) continue;
    // Random target inside bucket i's range: shares exactly (255 - i) prefix
    // bits with our id, differs at bit (255 - i).
    Key target = id_;
    const int diff_bit = 255 - static_cast<int>(i);
    const auto byte = static_cast<std::size_t>(diff_bit / 8);
    const int bit_in_byte = 7 - diff_bit % 8;
    target.bytes[byte] ^= static_cast<std::uint8_t>(1u << bit_in_byte);
    for (std::size_t b = byte + 1; b < 32; ++b) {
      target.bytes[b] = static_cast<std::uint8_t>(rng.next());
    }
    lookup(target, [](LookupResult) {});
  }
}

}  // namespace decentnet::overlay
