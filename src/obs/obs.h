/**
 * @file
 * Umbrella header of the observability layer: spans + trace export
 * (obs/trace.h) and monotonic counters (obs/counters.h).  The memory
 * plan's footprint replay lives with the planner
 * (memory::replayPlan), which obs sits below.
 *
 * Everything is gated behind ECHO_TRACE=<path> (or a programmatic
 * startTrace()); with tracing disabled, instrumentation costs one
 * relaxed atomic load per span site and one relaxed atomic add per
 * counter tick.
 */
#ifndef ECHO_OBS_OBS_H
#define ECHO_OBS_OBS_H

#include "obs/counters.h"
#include "obs/trace.h"

#endif // ECHO_OBS_OBS_H
