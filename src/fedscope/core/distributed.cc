#include "fedscope/core/distributed.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "fedscope/core/client_range.h"
#include "fedscope/core/events.h"
#include "fedscope/core/topology.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

double NowSeconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

}  // namespace

// --------------------------------------------------------------------------
// EpochUplink
// --------------------------------------------------------------------------

Status EpochUplink::Open(const std::string& host, int port,
                         const TransportOptions& transport) {
  auto conn = TcpConnection::ConnectWithRetry(host, port, transport);
  if (!conn.ok()) return conn.status();
  connection_ = std::move(conn.value());
  return Status::Ok();
}

Status EpochUplink::Reopen(const std::string& host, int port,
                           const TransportOptions& transport) {
  connection_.Close();
  epoch_ = -1;
  return Open(host, port, transport);
}

void EpochUplink::Send(const Message& msg) {
  Message stamped = msg;
  stamped.timestamp = NowSeconds();
  // Echo the session epoch the server taught us; join_in goes out
  // unstamped (epoch unknown) and is exempt at the server's ingress.
  if (epoch_ >= 0) stamped.payload.SetInt(kSessionEpochKey, epoch_);
  if (obs_ != nullptr) obs_->OnChannelSend(stamped);
  Status status = connection_.SendMessage(stamped);
  if (!status.ok()) {
    FS_LOG(Warning) << "uplink send failed: " << status.ToString();
  }
}

// --------------------------------------------------------------------------
// DistributedServerHost
// --------------------------------------------------------------------------

/// CommChannel that writes outgoing messages to the receiver's socket.
class DistributedServerHost::Router : public CommChannel {
 public:
  explicit Router(DistributedServerHost* host) : host_(host) {}

  void Send(const Message& msg) override {
    if (msg.receiver == kServerId) {
      // Self-addressed messages (timers) are unsupported in distributed
      // mode; kAsyncTime is standalone-only.
      FS_LOG(Warning) << "dropping self-addressed message in distributed "
                         "mode: "
                      << MessageSummary(msg);
      return;
    }
    if (IsRangeMessage(msg)) {
      // Each addressed connection gets its own per-id, epoch-stamped copy,
      // so the wire protocol stays per-id: TCP clients never see a range.
      ClientRange::Of(msg).ForEachRun([&](int begin, int end) {
        for (int id = begin; id < end; ++id) {
          SendOne(ClientRange::PerIdCopy(msg, id));
        }
      });
      return;
    }
    SendOne(msg);
  }

 private:
  void SendOne(const Message& msg) {
    std::lock_guard<std::mutex> lock(host_->send_mu_);
    auto it = host_->connections_.find(msg.receiver);
    if (it == host_->connections_.end()) {
      FS_LOG(Warning) << "no connection for worker " << msg.receiver;
      return;
    }
    // The first finish broadcast marks course end. The flag must be set
    // before the bytes hit the wire: a client can receive finish and hang
    // up before the event loop regains control, and its EOF must already
    // read as orderly.
    if (msg.msg_type == events::kFinish) host_->course_finished_.store(true);
    Message stamped = msg;
    stamped.timestamp = NowSeconds();
    // Every outgoing message carries the session epoch; clients adopt it
    // and echo it, letting the ingress tell live traffic from messages
    // produced against a dead incarnation of the course.
    stamped.payload.SetInt(kSessionEpochKey, host_->session_epoch_);
    if (host_->obs_ != nullptr) host_->obs_->OnChannelSend(stamped);
    Status status = it->second.SendMessage(stamped);
    if (!status.ok()) {
      FS_LOG(Warning) << "send to worker " << msg.receiver
                      << " failed: " << status.ToString();
    }
  }

  DistributedServerHost* host_;
};

DistributedServerHost::DistributedServerHost(
    ServerOptions options, Model global_model,
    std::unique_ptr<Aggregator> aggregator, TcpListener listener,
    TransportOptions transport)
    : listener_(std::move(listener)),
      transport_(transport),
      router_(new Router(this)) {
  FS_CHECK(options.strategy != Strategy::kAsyncTime)
      << "kAsyncTime needs the standalone simulator's timer service";
  FS_CHECK_EQ(options.receive_deadline, 0.0)
      << "receive_deadline rides the standalone simulator's timer service; "
         "the distributed host detects failure through mid-course EOF";
  server_ = std::make_unique<Server>(std::move(options),
                                     std::move(global_model),
                                     std::move(aggregator), router_.get());
}

DistributedServerHost::~DistributedServerHost() {
  // Shutdown -> join -> close: readers may still be blocked in recv on
  // these descriptors (crash-path teardown); closing under them races
  // with kernel descriptor reuse.
  {
    std::lock_guard<std::mutex> lock(send_mu_);
    for (auto& [id, conn] : connections_) conn.Shutdown();
  }
  for (auto& reader : readers_) {
    if (reader.joinable()) reader.join();
  }
  std::lock_guard<std::mutex> lock(send_mu_);
  for (auto& [id, conn] : connections_) conn.Close();
}

void DistributedServerHost::PushIncoming(Message msg) {
  std::lock_guard<std::mutex> lock(mu_);
  // Watchdog timers are wake signals, not course traffic: a standby
  // re-arms its watchdog with byte-identical frames (the suppressor would
  // eat the chain), and the deadline re-check they trigger is harmless
  // whatever incarnation produced them — exempt from both checks.
  const bool timer = msg.msg_type == events::kTimer;
  // Messages not authenticated to this incarnation's session epoch were
  // produced against a dead one (pre-crash retransmits, updates trained on
  // a pre-snapshot broadcast); reject them before the Server worker can
  // see them. join_in is exempt — it is how a client learns the epoch.
  if (!timer && msg.msg_type != events::kJoinIn &&
      msg.payload.GetInt(kSessionEpochKey, -1) != session_epoch_) {
    ++stale_epoch_rejected_;
    FS_LOG(Warning) << "rejected stale-epoch message (session epoch "
                    << session_epoch_ << "): " << MessageSummary(msg);
    return;
  }
  // At-least-once delivery makes retransmissions possible; suppress exact
  // repeats here so the Server worker never sees them. Root-addressed
  // traffic only: the per-sender suppressor assumes consecutive frames
  // from one sender differ, but a relaying aggregator fans byte-identical
  // model_para frames out to every client of its shard. Relayed repeats
  // are absorbed by the receiving workers' own idempotence instead (a
  // client not in the sub-cohort is ignored; replication is monotonic).
  if (!timer && msg.receiver == kServerId && dedup_.IsDuplicate(msg)) return;
  incoming_.push_back(std::move(msg));
  cv_.notify_one();
}

void DistributedServerHost::ReaderLoop(int worker_id,
                                       TcpConnection* connection) {
  // std::map nodes are stable, so the pointer captured at accept time
  // stays valid while later clients are still being inserted.
  while (true) {
    Result<Message> msg = connection->ReceiveMessage();
    if (!msg.ok()) {
      if (msg.status().code() == StatusCode::kDeadlineExceeded) {
        continue;  // idle between messages (recv_timeout), not a failure
      }
      const bool orderly = course_finished_.load();
      if (!orderly) {
        // Mid-course EOF/corruption: treat the worker as failed. Drop the
        // connection so the router stops addressing it, and report the
        // failure — to the Server worker for a client (the worker decides
        // how to degrade), as a standby wake for an edge aggregator; no
        // obs calls from this thread (MetricsRegistry is confined to the
        // event-loop thread).
        FS_LOG(Warning) << (IsAggregatorId(worker_id) ? "aggregator "
                                                      : "client ")
                        << worker_id
                        << " failed mid-course: " << msg.status().ToString();
        {
          std::lock_guard<std::mutex> lock(send_mu_);
          connections_.erase(worker_id);  // `connection` dangles hereafter
        }
        if (!IsAggregatorId(worker_id)) {
          Message failure;
          failure.sender = worker_id;
          failure.receiver = kServerId;
          failure.msg_type = events::kClientFailure;
          failure.timestamp = NowSeconds();
          // Host-synthesized, so authenticate it to the live epoch (the
          // ingress would otherwise reject it as stale).
          failure.payload.SetInt(kSessionEpochKey, session_epoch_);
          PushIncoming(std::move(failure));
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++eof_count_;
        if (!orderly) {
          if (IsAggregatorId(worker_id)) {
            ++failed_aggregators_;
          } else {
            ++failed_clients_;
          }
        }
        cv_.notify_one();
      }
      // Failover runs on this thread (the dead connection's reader has
      // nothing left to do) because it sleeps out the standby's deadline.
      if (!orderly && IsAggregatorId(worker_id)) {
        AggregatorFailover(worker_id);
      }
      return;
    }
    PushIncoming(std::move(msg.value()));
  }
}

void DistributedServerHost::AggregatorFailover(int aggregator_id) {
  const Topology& topology = server_->options().topology;
  const int shard = AggregatorShard(aggregator_id);
  const double eof_time = NowSeconds();
  // EOF is a definite death signal, but the standby's promotion guard
  // compares the hub-stamped wall clock against its staggered replication
  // deadline (failure_timeout × slot, DESIGN.md §11). Wait the target
  // slot's deadline out before waking it so one wake suffices; should a
  // late in-flight heartbeat still read as "alive", the worker re-arms
  // its watchdog through the hub until the deadline truly lapses.
  while (!course_finished_.load()) {
    int standby = -1;
    {
      std::lock_guard<std::mutex> lock(send_mu_);
      for (int slot = 0; slot <= topology.standbys_per_shard; ++slot) {
        const int candidate = AggregatorId(shard, slot);
        if (candidate != aggregator_id &&
            connections_.find(candidate) != connections_.end()) {
          standby = candidate;
          break;
        }
      }
    }
    if (standby < 0) {
      FS_LOG(Error) << "aggregator " << aggregator_id << " (shard " << shard
                    << ") failed with no live standby; the shard's clients "
                       "are stranded";
      return;
    }
    const double wake_at =
        eof_time + topology.failure_timeout * AggregatorSlot(standby);
    const double wait = wake_at - NowSeconds();
    if (wait <= 0.0) {
      FS_LOG(Warning) << "shard " << shard << " lost aggregator "
                      << aggregator_id << "; waking standby " << standby;
      Message wake;
      wake.sender = standby;
      wake.receiver = standby;
      wake.msg_type = events::kTimer;
      wake.timestamp = NowSeconds();
      wake.payload.SetInt(kSessionEpochKey, session_epoch_);
      PushIncoming(std::move(wake));
      return;
    }
    // Re-scan while waiting: the chosen standby may itself die.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(wait, 0.05)));
  }
}

Status DistributedServerHost::RestoreFromCheckpoint(
    const Checkpoint& checkpoint) {
  FS_RETURN_IF_ERROR(server_->RestoreSnapshot(checkpoint));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (checkpoint.course.HasScalar("transport/dedup/count")) {
      FS_RETURN_IF_ERROR(
          dedup_.LoadState(checkpoint.course, "transport/dedup"));
    }
  }
  // Bump past the snapshot's epoch: every message the dead incarnation
  // produced (or that clients produced against it) is now stale.
  session_epoch_ = checkpoint.course.GetInt("transport/epoch", 0) + 1;
  if (obs_ != nullptr) obs_->Count("fs_recoveries_total");
  FS_LOG(Info) << "restored from snapshot: round " << server_->round()
               << ", session epoch " << session_epoch_;
  return Status::Ok();
}

void DistributedServerHost::WriteSnapshot() {
  Checkpoint snapshot;
  server_->ExportSnapshot(&snapshot);
  // Transport extras: what a restarted *host* needs beyond the worker.
  snapshot.course.SetInt("transport/epoch", session_epoch_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    dedup_.SaveState(&snapshot.course, "transport/dedup");
  }
  auto written = snapshot_writer_.Write(snapshot);
  if (!written.ok()) {
    FS_LOG(Warning) << "snapshot write failed: "
                    << written.status().ToString();
    return;
  }
  if (obs_ != nullptr) {
    obs_->Count("fs_snapshots_written_total");
    obs_->Count("fs_snapshot_bytes_total",
                static_cast<double>(written.value()));
    if (obs_->course_log != nullptr) {
      obs_->course_log->AnnotateSnapshot(written.value());
    }
  }
}

ServerStats DistributedServerHost::Run() {
  const int expected = server_->options().expected_clients;
  FS_CHECK_GT(expected, 0) << "set ServerOptions::expected_clients";
  const Topology& topology = server_->options().topology;
  const int aggregator_slots =
      topology.hierarchical()
          ? topology.num_shards * (topology.standbys_per_shard + 1)
          : 0;
  const int expected_connections = expected + aggregator_slots;

  // Phase 1: accept every participant. The first message on each
  // connection must be join_in, announcing the worker's id. Client joins
  // are delivered to the Server worker only once ALL connections are
  // registered: the last client join triggers the first broadcast, which
  // in hierarchical mode is addressed to edge aggregators — the router
  // drops messages whose connection has not been accepted yet.
  // Aggregator joins are a host-level handshake (which connection carries
  // which worker id) and are never delivered to the Server worker:
  // aggregators are infrastructure, not sampled participants.
  std::vector<Message> client_joins;
  client_joins.reserve(expected);
  for (int i = 0; i < expected_connections; ++i) {
    auto conn = listener_.Accept();
    FS_CHECK(conn.ok()) << conn.status().ToString();
    auto hello = conn->ReceiveMessage();
    FS_CHECK(hello.ok()) << hello.status().ToString();
    FS_CHECK_EQ(hello->msg_type, std::string(events::kJoinIn))
        << "first message must be join_in";
    const int id = hello->sender;
    FS_CHECK_GE(id, 1);
    // A connection speaks for its own id only: a range join is the
    // standalone runner's, never a peer's.
    hello->payload.RemoveScalar(kRangeCountKey);
    if (IsAggregatorId(id)) {
      FS_CHECK_LT(AggregatorShard(id), topology.num_shards)
          << "aggregator " << id << " outside the configured topology";
      FS_CHECK_LE(AggregatorSlot(id), topology.standbys_per_shard)
          << "aggregator " << id << " outside the configured topology";
    }
    TcpConnection* connection = nullptr;
    {
      std::lock_guard<std::mutex> lock(send_mu_);
      FS_CHECK(connections_.find(id) == connections_.end())
          << "duplicate worker id " << id;
      connection = &connections_.emplace(id, std::move(conn.value()))
                        .first->second;
      Status timeouts = connection->SetTimeouts(transport_.send_timeout,
                                                transport_.recv_timeout);
      if (!timeouts.ok()) {
        FS_LOG(Warning) << "timeouts for worker " << id
                        << " not applied: " << timeouts.ToString();
      }
    }
    readers_.emplace_back(
        [this, id, connection] { ReaderLoop(id, connection); });
    if (!IsAggregatorId(id)) client_joins.push_back(std::move(hello.value()));
  }
  for (Message& join : client_joins) {
    // Deliver the join to the server worker (triggers assign_id and,
    // on the last join, all_joined_in -> first broadcast). Record it in
    // the suppressor first so a retransmitted join_in is caught.
    join.timestamp = NowSeconds();
    {
      std::lock_guard<std::mutex> lock(mu_);
      dedup_.IsDuplicate(join);
    }
    server_->HandleMessage(join);
    if (server_->finished()) course_finished_.store(true);
  }

  // Phase 2: event loop until the course finishes and participants hang
  // up. Messages not addressed to the root worker are relayed to the
  // receiver's connection (hub duty): aggregator->client model relays,
  // client->aggregator updates, replication heartbeats, watchdog timers.
  int last_seen_round = server_->round();
  while (true) {
    Message msg;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(200), [&] {
        return !incoming_.empty() ||
               (server_->finished() && eof_count_ >= expected_connections);
      });
      if (incoming_.empty()) {
        if (server_->finished() && eof_count_ >= expected_connections) break;
        continue;
      }
      msg = std::move(incoming_.front());
      incoming_.pop_front();
    }
    if (msg.receiver != kServerId) {
      router_->Send(msg);  // re-stamps wall time + live session epoch
      continue;
    }
    msg.timestamp = NowSeconds();
    server_->HandleMessage(msg);
    if (server_->finished()) course_finished_.store(true);
    if (server_->round() != last_seen_round) {
      last_seen_round = server_->round();
      if (snapshot_writer_.enabled() &&
          snapshot_writer_.ShouldSnapshot(last_seen_round)) {
        WriteSnapshot();
      }
      // Simulated crash (tests/CI): die abruptly — no finish broadcast;
      // connections drop in the destructor, clients see mid-course EOF.
      if (halt_after_round_ > 0 && last_seen_round >= halt_after_round_) {
        FS_LOG(Warning) << "halting after round " << last_seen_round
                        << " (simulated crash)";
        return server_->stats();
      }
    }
  }
  // Obs sinks are confined to this thread; flush ingress counters that
  // reader threads accumulated under the lock.
  if (obs_ != nullptr) {
    int64_t stale = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stale = stale_epoch_rejected_;
    }
    if (stale > 0) {
      obs_->Count("fs_stale_epoch_rejected_total",
                  static_cast<double>(stale));
    }
  }
  return server_->stats();
}

// --------------------------------------------------------------------------
// DistributedClientHost
// --------------------------------------------------------------------------

void DistributedClientHost::set_obs(const ObsContext* obs) {
  uplink_->set_obs(obs);
  client_->set_obs(obs);
}

DistributedClientHost::DistributedClientHost(
    int client_id, ClientOptions options, Model model, SplitDataset data,
    std::unique_ptr<BaseTrainer> trainer, const std::string& server_host,
    int server_port, TransportOptions transport)
    : client_id_(client_id),
      server_host_(server_host),
      server_port_(server_port),
      transport_(transport),
      uplink_(new EpochUplink()) {
  connect_status_ = uplink_->Open(server_host, server_port, transport);
  client_ = std::make_unique<Client>(client_id, std::move(options),
                                     std::move(model), std::move(data),
                                     std::move(trainer), uplink_.get());
}

DistributedClientHost::~DistributedClientHost() = default;

Status DistributedClientHost::Run() {
  FS_RETURN_IF_ERROR(connect_status_);
  client_->JoinIn();
  int rejoins_left = transport_.rejoin_attempts;
  while (!client_->finished()) {
    auto msg = uplink_->Receive();
    if (!msg.ok()) {
      if (msg.status().code() == StatusCode::kDeadlineExceeded) {
        continue;  // idle between rounds (recv_timeout), keep waiting
      }
      if (rejoins_left <= 0) {
        uplink_->Close();
        return msg.status();
      }
      // Mid-course connection loss: assume a server crash + restart from
      // snapshot (DESIGN.md §10). Reconnect with the seeded backoff and
      // re-join; the restarted server re-acks this client and, if it was
      // mid-round at the snapshot, re-broadcasts the model. Any update
      // trained against the dead incarnation is abandoned — the new
      // incarnation would reject it as stale-epoch anyway.
      --rejoins_left;
      ++rejoins_;
      FS_LOG(Warning) << "client " << client_id_ << " lost server ("
                      << msg.status().ToString() << "); re-joining";
      Status reopened =
          uplink_->Reopen(server_host_, server_port_, transport_);
      if (!reopened.ok()) {
        uplink_->Close();
        return reopened;
      }
      client_->JoinIn();
      continue;
    }
    // Adopt the session epoch the server stamps on every message before
    // handling it, so replies authenticate to the epoch they answer.
    if (msg->payload.HasScalar(kSessionEpochKey)) {
      uplink_->set_epoch(msg->payload.GetInt(kSessionEpochKey));
    }
    client_->HandleMessage(*msg);
  }
  uplink_->Close();
  return Status::Ok();
}

}  // namespace fedscope
