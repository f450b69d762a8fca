// Canonical metric and span names. Every counter/gauge/histogram lookup and
// every trace-span name in src/ must use one of these constants (or a
// declared prefix constant for the few dynamically-suffixed families).
// tools/lint.py's `metric-name` rule enforces this: a string literal passed
// directly to GetCounter/GetGauge/GetHistogram/TraceSpan/BeginSpan/Instant
// inside src/ must appear below, and every name declared here must be
// dot-case (`seg.seg.seg`, segments lowercase_with_underscores). That keeps
// the metrics surface greppable and makes a typo a lint failure instead of a
// silently-forked time series.
#ifndef SRC_COMMON_METRIC_NAMES_H_
#define SRC_COMMON_METRIC_NAMES_H_

namespace skadi {
namespace names {

// --- runtime (task lifecycle, future resolution) ---
inline constexpr char kRuntimeTasksSubmitted[] = "runtime.tasks_submitted";
inline constexpr char kRuntimeTasksCompleted[] = "runtime.tasks_completed";
inline constexpr char kRuntimeTasksFailed[] = "runtime.tasks_failed";
inline constexpr char kRuntimeControlHops[] = "runtime.control_hops";
inline constexpr char kRuntimePushes[] = "runtime.pushes";
inline constexpr char kRuntimePushMisses[] = "runtime.push_misses";
inline constexpr char kRuntimeResolveLocalHits[] = "runtime.resolve_local_hits";
inline constexpr char kRuntimePullResolutions[] = "runtime.pull_resolutions";
inline constexpr char kRuntimeNodesKilled[] = "runtime.nodes_killed";
inline constexpr char kRuntimeUnrecoverableObjects[] = "runtime.unrecoverable_objects";
inline constexpr char kRuntimeLineageReexecutions[] = "runtime.lineage_reexecutions";
inline constexpr char kRuntimeLostRetries[] = "runtime.lost_retries";
inline constexpr char kRuntimeGetNanos[] = "runtime.get_nanos";
// Batched resolution pushes (DESIGN.md §13): fabric messages sent carrying a
// batch, and object-consumer entries carried. entries - batches = control
// messages saved vs the one-message-per-push protocol.
inline constexpr char kRuntimePushBatches[] = "runtime.push_batches";
inline constexpr char kRuntimePushBatchedEntries[] = "runtime.push_batched_entries";

// --- scheduler ---
inline constexpr char kSchedulerDispatched[] = "scheduler.dispatched";
inline constexpr char kSchedulerParked[] = "scheduler.parked";
inline constexpr char kSchedulerGangBuffered[] = "scheduler.gang_buffered";
inline constexpr char kSchedulerGangsDispatched[] = "scheduler.gangs_dispatched";
inline constexpr char kSchedulerUnschedulable[] = "scheduler.unschedulable";
inline constexpr char kSchedulerDispatchRetries[] = "scheduler.dispatch_retries";
inline constexpr char kSchedulerAbortRedispatches[] = "scheduler.abort_redispatches";
inline constexpr char kSchedulerFailoverRedispatches[] = "scheduler.failover_redispatches";
inline constexpr char kSchedulerPendingDepth[] = "scheduler.pending_depth";
// The scheduler does not steal work, so nothing increments it; the
// end-to-end benchmark reports it (as 0) and compiles against it.
inline constexpr char kSchedulerStealCount[] = "scheduler.steal_count";

// --- raylet (worker pool + task execution) ---
inline constexpr char kRayletTaskNanos[] = "raylet.task_nanos";
inline constexpr char kRayletQueueDepth[] = "raylet.queue_depth";
inline constexpr char kRayletReactorDispatches[] = "raylet.reactor.dispatches";
inline constexpr char kRayletReactorDispatchNanos[] = "raylet.reactor.dispatch_nanos";
inline constexpr char kRayletReactorTimerLagNanos[] = "raylet.reactor.timer_lag_nanos";
inline constexpr char kRayletReactorReadyDepth[] = "raylet.reactor.ready_depth";

// --- fabric (messages/bytes per link class, transfers, reactor) ---
// Prefix families: the full name is prefix + LinkClassName(c), e.g.
// "fabric.messages.same_server". Only the prefixes are declared; the suffix
// vocabulary is LinkClassName's.
inline constexpr char kFabricMessagesPrefix[] = "fabric.messages.";
inline constexpr char kFabricBytesPrefix[] = "fabric.bytes.";
inline constexpr char kFabricControlMessages[] = "fabric.control_messages";
inline constexpr char kFabricDataTransfers[] = "fabric.data_transfers";
inline constexpr char kFabricDataBytes[] = "fabric.data_bytes";
// The runtime's control reactor (SkadiRuntime::control_) keeps the
// fabric.reactor.* names it had when the fabric owned it; perfbench reads them.
inline constexpr char kFabricReactorDispatches[] = "fabric.reactor.dispatches";
inline constexpr char kFabricReactorDispatchNanos[] = "fabric.reactor.dispatch_nanos";
inline constexpr char kFabricReactorTimerLagNanos[] = "fabric.reactor.timer_lag_nanos";
inline constexpr char kFabricReactorReadyDepth[] = "fabric.reactor.ready_depth";

// --- caching layer ---
inline constexpr char kCacheLocalHits[] = "cache.local_hits";
inline constexpr char kCacheMisses[] = "cache.misses";
inline constexpr char kCacheRemoteFetches[] = "cache.remote_fetches";
inline constexpr char kCacheCoalescedFetches[] = "cache.coalesced_fetches";
inline constexpr char kCacheEcReconstructs[] = "cache.ec_reconstructs";
inline constexpr char kCacheSpillBytes[] = "cache.spill_bytes";

// --- ownership table ---
inline constexpr char kOwnershipWatchRegistrations[] = "ownership.watch_registrations";
inline constexpr char kOwnershipWatcherFires[] = "ownership.watcher_fires";
inline constexpr char kOwnershipWatchers[] = "ownership.watchers";
inline constexpr char kOwnershipShardLockWaits[] = "ownership.shard_lock_waits";

// --- autoscaler / core ---
inline constexpr char kAutoscalerScaleUps[] = "autoscaler.scale_ups";
inline constexpr char kAutoscalerScaleDowns[] = "autoscaler.scale_downs";
inline constexpr char kCoreAdaptiveDopDecisions[] = "core.adaptive_dop_decisions";

// --- span names (skadi::trace) ---
inline constexpr char kSpanRuntimeSubmit[] = "runtime.submit";
inline constexpr char kSpanRuntimeGet[] = "runtime.get";
inline constexpr char kSpanRuntimeResolveArg[] = "runtime.resolve_arg";
inline constexpr char kSpanRuntimeCompleteTask[] = "runtime.complete_task";
inline constexpr char kSpanRuntimeLostRetry[] = "runtime.lost_retry";
inline constexpr char kSpanSchedulerDispatch[] = "scheduler.dispatch";
inline constexpr char kSpanRayletRunTask[] = "raylet.run_task";
inline constexpr char kSpanRayletCompute[] = "raylet.compute";
inline constexpr char kSpanCacheGet[] = "cache.get";
inline constexpr char kSpanCacheFetchRemote[] = "cache.fetch_remote";
inline constexpr char kSpanFabricCall[] = "fabric.call";
inline constexpr char kSpanFabricTransfer[] = "fabric.transfer";
inline constexpr char kSpanOwnershipWatcherFire[] = "ownership.watcher_fire";

}  // namespace names
}  // namespace skadi

#endif  // SRC_COMMON_METRIC_NAMES_H_
