#pragma once
/// \file engine.hpp
/// \brief Umbrella header for the matching engine subsystem.
///
/// The engine is the serving layer on top of the paper's algorithms: a
/// registry naming every matcher, pipelines composing scaling + heuristic +
/// exact augmentation, and `bmh::Engine` (engine_api.hpp) — the long-lived
/// session façade owning the worker pool, per-worker arenas, graph cache
/// and persistent store, executing jobs concurrently with deterministic
/// seeding and a JSON-lines result sink. Every scaling, caching or
/// multi-backend feature plugs in here rather than into the algorithm
/// implementations.

#include "engine/engine_api.hpp"
#include "engine/graph_cache.hpp"
#include "engine/graph_store.hpp"
#include "engine/job.hpp"
#include "engine/json.hpp"
#include "engine/pipeline.hpp"
#include "engine/registry.hpp"
