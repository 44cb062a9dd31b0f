//! Remote streaming queries: the client that issues them and assembles the batches, and
//! the server that holds a pull cursor open on behalf of each peer.
//!
//! The wire is strictly pull-based.  `QueryRequest` opens a cursor and ships batch 0;
//! each `QueryNext { expect_seq }` ships the next batch.  Batch sequence numbers make
//! every re-send idempotent: a server asked again for the batch it shipped last
//! retransmits its cached copy, and a client drops any batch it is not expecting.  An
//! exhausted cursor lingers as a tombstone so that even a lost *final* batch can be
//! re-requested, until the idle reaper collects it.

use gsn_network::{Message, Principal, RequestId};
use gsn_sql::Relation;
use gsn_telemetry::{HopBreakdown, Stopwatch, TraceContext};
use gsn_types::{GsnError, GsnResult, NodeId, Timestamp, Value};

use super::exchange::{Flight, Kind, REMOTE_CURSOR_IDLE_TIMEOUT};
use super::GsnContainer;
use crate::cursor::QueryCursor;

/// Upper bound on concurrently open server-side remote query cursors; requests past
/// the cap are refused (the idle reaper keeps abandoned cursors from pinning slots
/// until then).
pub(super) const MAX_REMOTE_CURSORS: usize = 64;

/// One streaming-query cursor held open on behalf of a remote peer.
pub(super) struct RemoteCursor {
    /// The peer that opened the cursor; only it may pull (the rows were
    /// access-checked against *its* principal, and cursor ids are guessable).
    owner: NodeId,
    /// The originating request id (retransmitted `QueryRequest`s are matched by
    /// `(owner, request)` so a lost first batch does not open a duplicate cursor).
    request: RequestId,
    /// `None` once exhausted: the entry lingers as a tombstone so a lost *final*
    /// batch can be retransmitted, until the idle reaper collects it.
    cursor: Option<QueryCursor>,
    /// Sequence number the next fresh batch will carry.
    next_seq: u64,
    /// The last batch shipped, cached for retransmission on re-request.
    last_batch: Option<Message>,
    /// Last time the owner pulled a batch (for the idle reaper).
    last_active: Timestamp,
    /// Time spent authorising and opening the cursor, charged to the first batch's
    /// `server_micros` so the client's per-hop breakdown sees the open cost.
    open_micros: u64,
}

/// Client-side accumulation of one in-flight remote streaming query.
pub(super) struct RemoteQuery {
    batch_rows: u32,
    /// The batch sequence number expected next, which is also how many batches
    /// arrived (duplicates below it are ignored).
    expect_seq: u64,
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    error: Option<String>,
    /// Distributed-trace context carried on the `QueryNext` frames; `None` for
    /// untraced queries.
    trace: Option<TraceContext>,
    /// This hop's wire timing: the traced request's encode time, the round trip from
    /// send to first batch, and the server time the batches report.
    hop: HopBreakdown,
}

/// The assembled result of a remote streaming query (see
/// [`GsnContainer::remote_query`]).
#[derive(Debug, Clone)]
pub struct RemoteQueryResult {
    /// The result rows, assembled from the incremental `QueryBatch` messages.
    pub relation: Relation,
    /// How many batches carried the result over the wire.
    pub batches: u64,
    /// Wire-timing breakdown of this hop (serialize, RTT, remote execute, retries).
    pub hop: HopBreakdown,
}

/// The wall time of one throwaway encode of `message` — the serialize leg of a traced
/// hop's breakdown.  Untraced requests pay nothing.
pub(super) fn serialize_micros(message: &Message, traced: bool) -> u64 {
    if !traced {
        return 0;
    }
    let watch = Stopwatch::start();
    let _ = gsn_network::encode(message);
    watch.elapsed_micros()
}

/// A relation of unqualified columns.
pub(super) fn relation_of(columns: &[String], rows: Vec<Vec<Value>>) -> GsnResult<Relation> {
    let columns = columns
        .iter()
        .map(|n| gsn_sql::ColumnInfo::new(None, n, None))
        .collect();
    Relation::with_rows(columns, rows)
}

/// A terminal, failed batch answering `request`.
fn refusal(request: RequestId, cursor: u64, seq: u64, error: String) -> Vec<Message> {
    vec![Message::QueryBatch {
        request,
        cursor,
        columns: Vec::new(),
        rows: Vec::new(),
        seq,
        done: true,
        error,
        server_micros: 0,
    }]
}

impl GsnContainer {
    /// Issues a streaming SQL query against a *remote* container.  The remote node
    /// opens a pull-based cursor and ships the result as incremental `QueryBatch`
    /// messages of `batch_rows` rows each (instead of one monolithic relation), which
    /// this container assembles over subsequent [`step`](Self::step)s.  Poll
    /// [`take_remote_query_result`](Self::take_remote_query_result) with the returned
    /// request id.
    pub fn remote_query(
        &mut self,
        target: NodeId,
        sql: &str,
        batch_rows: usize,
    ) -> GsnResult<RequestId> {
        self.issue_remote_query(target, sql, batch_rows, None)
    }

    pub(super) fn issue_remote_query(
        &mut self,
        target: NodeId,
        sql: &str,
        batch_rows: usize,
        trace: Option<TraceContext>,
    ) -> GsnResult<RequestId> {
        let network = self.network_for("remote queries")?;
        let batch_rows = batch_rows.clamp(1, 65_536) as u32;
        let request = self.exchanges.next_request();
        let message = Message::QueryRequest {
            request,
            sql: sql.to_owned(),
            batch_rows,
            trace,
        };
        let hop = HopBreakdown {
            peer: target.as_u64(),
            serialize_micros: serialize_micros(&message, trace.is_some()),
            ..HopBreakdown::default()
        };
        let now = self.clock.now();
        network.send(self.config.node_id, target, message.clone(), now)?;
        let query = RemoteQuery {
            batch_rows,
            expect_seq: 0,
            columns: Vec::new(),
            rows: Vec::new(),
            error: None,
            trace,
            hop,
        };
        let flight = Flight::new(vec![target], Some(message), now, Kind::Query(query));
        self.exchanges.insert(request, flight);
        Ok(request)
    }

    /// Cancels an in-flight remote query, dropping any batches accumulated so far;
    /// returns whether the request was still tracked.  A server-side cursor left open
    /// by the cancellation is reclaimed by the remote node's idle reaper.
    pub fn cancel_remote_query(&mut self, request: RequestId) -> bool {
        self.exchanges
            .take(request, |f| matches!(f.kind, Kind::Query(_)))
            .is_some()
    }

    /// Number of remote queries issued by this container whose results are still
    /// tracked (in flight or awaiting [`take_remote_query_result`](Self::take_remote_query_result)).
    pub fn pending_remote_queries(&self) -> usize {
        self.exchanges
            .ids(|f| matches!(f.kind, Kind::Query(_)))
            .len()
    }

    /// Takes the finished result of a query issued with [`remote_query`](Self::remote_query):
    /// `None` while batches are still in flight, `Some(Err)` when the remote node
    /// reported a failure, `Some(Ok)` with the assembled relation once complete.
    pub fn take_remote_query_result(
        &mut self,
        request: RequestId,
    ) -> Option<GsnResult<RemoteQueryResult>> {
        let flight = self.exchanges.take(request, |f| {
            f.finished() && matches!(f.kind, Kind::Query(_))
        })?;
        let Kind::Query(query) = flight.kind else {
            return None;
        };
        if let Some(error) = query.error {
            return Some(Err(GsnError::sql_exec(format!(
                "remote query failed: {error}"
            ))));
        }
        let hop = HopBreakdown {
            retransmits: flight.retransmits,
            ..query.hop
        };
        Some(
            relation_of(&query.columns, query.rows).map(|relation| RemoteQueryResult {
                relation,
                batches: query.expect_seq,
                hop,
            }),
        )
    }

    /// Number of streaming cursors currently held open on behalf of remote peers
    /// (exhausted cursors lingering only for final-batch retransmission not counted).
    pub fn open_remote_cursors(&self) -> usize {
        self.remote_cursors
            .values()
            .filter(|open| open.cursor.is_some())
            .count()
    }

    /// Folds one `QueryBatch` into its query and pulls the next batch.  A batch for a
    /// request we no longer track (taken, cancelled, reaped or never issued) is dropped;
    /// the server already closed done/errored cursors.
    pub(super) fn accept_query_batch(&mut self, from: NodeId, batch: Message, now: Timestamp) {
        let Message::QueryBatch {
            request,
            cursor,
            columns,
            rows,
            seq,
            done,
            error,
            server_micros,
        } = batch
        else {
            return;
        };
        let Some(flight) = self.exchanges.get_mut(request) else {
            return;
        };
        let Kind::Query(query) = &mut flight.kind else {
            return;
        };
        if !flight.awaiting.contains(&from) {
            return;
        }
        let rtt_millis = now.abs_diff(flight.last_sent).as_millis() as u64;
        self.telemetry.batch_rtt_millis.record(rtt_millis);
        if query.expect_seq == 0 {
            // First batch: its round trip covers the cursor open.
            query.hop.rtt_millis = rtt_millis;
        }
        query.hop.remote_micros += server_micros;
        flight.last_progress = now;
        if seq != query.expect_seq {
            // A duplicate (retransmission already consumed) or a stale refusal
            // answering an out-of-date re-request: drop it.  Re-requesting here would
            // double-ship every later batch on links whose RTT exceeds the retry
            // threshold, and an off-seq error must not kill a healthy query; genuine
            // gaps and dead cursors are recovered by the engine's re-send, whose
            // refusals arrive carrying the expected seq.
            return;
        }
        if !error.is_empty() {
            query.error = Some(error);
            flight.awaiting.clear();
            return;
        }
        query.expect_seq += 1;
        if query.columns.is_empty() {
            query.columns = columns;
        }
        query.rows.extend(rows);
        if done {
            flight.awaiting.clear();
            return;
        }
        // Ask for the next batch only now that this one has been consumed.
        let next = Message::QueryNext {
            request,
            cursor,
            batch_rows: query.batch_rows,
            expect_seq: query.expect_seq,
            trace: query.trace,
        };
        flight.resend = Some(next.clone());
        flight.last_sent = now;
        self.send(from, next, now);
    }

    /// Serves a remote `QueryRequest`: authorises and opens a cursor, then ships the
    /// first batch.  A *retransmitted* request (the client never saw our first batch on
    /// a lossy link) matches its existing cursor by `(owner, request)` and gets that
    /// batch again instead of opening a duplicate cursor.
    pub(super) fn serve_query_request(
        &mut self,
        from: NodeId,
        request: RequestId,
        sql: &str,
        batch_rows: usize,
        trace: Option<TraceContext>,
    ) -> Vec<Message> {
        if let Some((&id, _)) = self
            .remote_cursors
            .iter()
            .find(|(_, open)| open.owner == from && open.request == request)
        {
            // Retransmitted request: the serve span (if any) was recorded when the
            // cursor first opened, so only the batch is replayed.
            return self.serve_query_next(from, request, id, batch_rows, 0);
        }
        if self.open_remote_cursors() >= MAX_REMOTE_CURSORS {
            return refusal(
                request,
                0,
                0,
                format!("too many open remote cursors (limit {MAX_REMOTE_CURSORS})"),
            );
        }
        // A traced request records a serve span under the remote parent: the hop
        // shows up in the coordinator's assembled trace tree with the open cost.
        let watch = Stopwatch::start();
        let span = trace.map(|ctx| self.runtime.trace.begin_in_trace("query.serve", ctx));
        let opened = self.query_cursor_as(&Principal::named(&from.to_string()), sql);
        if let Some(span) = span {
            self.runtime.trace.finish(span);
        }
        let cursor = match opened {
            Ok(cursor) => cursor,
            Err(e) => return refusal(request, 0, 0, e.to_string()),
        };
        let id = self.next_cursor_id;
        self.next_cursor_id += 1;
        self.remote_cursors.insert(
            id,
            RemoteCursor {
                owner: from,
                request,
                cursor: Some(cursor),
                next_seq: 0,
                last_batch: None,
                last_active: self.clock.now(),
                open_micros: watch.elapsed_micros(),
            },
        );
        self.serve_query_next(from, request, id, batch_rows, 0)
    }

    /// Advances an open remote cursor by one batch, or retransmits the cached previous
    /// batch when the client re-requests it (`expect_seq` one behind).  Exhausted
    /// cursors linger as tombstones until the idle reaper collects them, so even a lost
    /// *final* batch is recoverable.  Only the peer that opened the cursor may pull
    /// from it — the rows were access-checked against *its* principal, and cursor ids
    /// are guessable.
    pub(super) fn serve_query_next(
        &mut self,
        from: NodeId,
        request: RequestId,
        cursor_id: u64,
        batch_rows: usize,
        expect_seq: u64,
    ) -> Vec<Message> {
        let refused = |error: String| refusal(request, cursor_id, expect_seq, error);
        let now = self.clock.now();
        let Some(open) = self.remote_cursors.get_mut(&cursor_id) else {
            return refused(format!("no open cursor {cursor_id}"));
        };
        if open.owner != from {
            // Leave the cursor open for its owner; only refuse the impostor.
            return refused(format!("cursor {cursor_id} is not owned by {from}"));
        }
        open.last_active = now;
        if open.next_seq.checked_sub(1) == Some(expect_seq) {
            // The client never saw (or lost) our last batch: retransmit the cache.
            if let Some(batch) = &open.last_batch {
                return vec![batch.clone()];
            }
        }
        if expect_seq != open.next_seq {
            return refused(format!(
                "cursor {cursor_id} is at batch {}, not {expect_seq}",
                open.next_seq
            ));
        }
        let Some(cursor) = open.cursor.as_mut() else {
            // Exhausted tombstone pulled past its cached batch: nothing left to serve.
            return refused(format!("cursor {cursor_id} is exhausted"));
        };
        let batch_watch = Stopwatch::start();
        match cursor.next_batch(batch_rows.clamp(1, 65_536)) {
            Ok(batch) => {
                let done = cursor.is_done();
                if done {
                    // Keep the entry as a tombstone for final-batch retransmission.
                    open.cursor = None;
                }
                let seq = open.next_seq;
                open.next_seq += 1;
                // The first batch also carries the cursor-open cost, so the client's
                // hop breakdown sees the full server-side time.
                let server_micros =
                    batch_watch.elapsed_micros() + if seq == 0 { open.open_micros } else { 0 };
                let message = Message::QueryBatch {
                    request,
                    cursor: cursor_id,
                    columns: batch.columns().iter().map(|c| c.name.clone()).collect(),
                    rows: batch.into_rows(),
                    seq,
                    done,
                    error: String::new(),
                    server_micros,
                };
                open.last_batch = Some(message.clone());
                if done {
                    self.prune_cursor_tombstones();
                }
                vec![message]
            }
            Err(e) => {
                self.remote_cursors.remove(&cursor_id);
                refused(e.to_string())
            }
        }
    }

    /// Closes every remote cursor whose owner stopped pulling (crashed client, lost
    /// `QueryNext`) for [`REMOTE_CURSOR_IDLE_TIMEOUT`], so abandoned cursors cannot
    /// pin slots under [`MAX_REMOTE_CURSORS`] forever.
    pub(super) fn reap_idle_cursors(&mut self, now: Timestamp) {
        let idle_since = now.saturating_sub(REMOTE_CURSOR_IDLE_TIMEOUT);
        self.remote_cursors
            .retain(|_, open| open.last_active >= idle_since);
    }

    /// Bounds the exhausted-cursor tombstones (each caches one batch for final-batch
    /// retransmission): beyond [`MAX_REMOTE_CURSORS`] of them, the least recently
    /// active ones are dropped immediately instead of waiting for the idle reaper —
    /// a peer looping short queries must not accumulate 60 s of cached batches.
    fn prune_cursor_tombstones(&mut self) {
        let excess = self
            .remote_cursors
            .values()
            .filter(|open| open.cursor.is_none())
            .count()
            .saturating_sub(MAX_REMOTE_CURSORS);
        if excess == 0 {
            return;
        }
        let mut tombstones: Vec<(u64, Timestamp)> = self
            .remote_cursors
            .iter()
            .filter(|(_, open)| open.cursor.is_none())
            .map(|(id, open)| (*id, open.last_active))
            .collect();
        tombstones.sort_by_key(|(_, last_active)| *last_active);
        for (id, _) in tombstones.into_iter().take(excess) {
            self.remote_cursors.remove(&id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::tests::{mote_descriptor, standalone};

    #[test]
    fn exhausted_remote_cursor_tombstones_are_bounded() {
        let (mut container, clock) = standalone();
        container.deploy(mote_descriptor("room-temp", 100)).unwrap();
        clock.advance(gsn_types::Duration::from_secs(1));
        container.step();
        // A peer loops short single-batch queries: every one completes immediately and
        // leaves a retransmission tombstone.  The tombstone count must stay bounded
        // instead of accumulating until the 60 s idle reaper.
        let peer = gsn_types::NodeId::new(9);
        for request in 0..(3 * MAX_REMOTE_CURSORS as u64) {
            let mut replies = container.serve_query_request(
                peer,
                request,
                "select avg_temp from room_temp limit 1",
                16,
                None,
            );
            assert_eq!(replies.len(), 1);
            match replies.pop().expect("one reply") {
                Message::QueryBatch { done, error, .. } => {
                    assert!(done);
                    assert!(error.is_empty(), "{error}");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(container.open_remote_cursors(), 0);
        assert!(
            container.remote_cursors.len() <= MAX_REMOTE_CURSORS + 1,
            "tombstones leaked: {}",
            container.remote_cursors.len()
        );
    }
}
