// Umbrella header for the memory subsystem library.
#pragma once

#include "memory/backing_store.hpp"     // IWYU pragma: export
#include "memory/bandwidth.hpp"         // IWYU pragma: export
#include "memory/branch_predictor.hpp"  // IWYU pragma: export
#include "memory/butterfly.hpp"          // IWYU pragma: export
#include "memory/fat_tree.hpp"          // IWYU pragma: export
#include "memory/hierarchy.hpp"         // IWYU pragma: export
#include "memory/memory_system.hpp"     // IWYU pragma: export
#include "memory/trace_cache.hpp"       // IWYU pragma: export
