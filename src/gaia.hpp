/// \file gaia.hpp
/// \brief Umbrella header: the library's public API in one include.
///
///   #include "gaia.hpp"
///
/// pulls in the dataset generators, the solver stack, the distributed
/// layer, the platform/portability analysis and the validation tools.
/// Fine-grained headers remain available for faster builds.
#pragma once

// Substrate: system representation and synthetic data.
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "matrix/generator.hpp"
#include "matrix/io.hpp"
#include "matrix/layout.hpp"
#include "matrix/scanlaw.hpp"
#include "matrix/system_matrix.hpp"

// Execution backends (the programming-model axis).
#include "backends/backend.hpp"
#include "backends/device_buffer.hpp"
#include "backends/kernel_config.hpp"

// The solver.
#include "core/aprod.hpp"
#include "core/derotation.hpp"
#include "core/lsqr.hpp"
#include "core/lsqr_engine.hpp"
#include "core/outer_loop.hpp"
#include "core/preconditioner.hpp"
#include "core/solver.hpp"
#include "core/weights.hpp"

// Distributed execution.
#include "dist/comm.hpp"
#include "dist/dist_lsqr.hpp"
#include "dist/partition.hpp"

// Platform model and portability analysis.
#include "metrics/cascade.hpp"
#include "metrics/efficiency.hpp"
#include "metrics/pennycook.hpp"
#include "metrics/report.hpp"
#include "perfmodel/cost_model.hpp"
#include "perfmodel/energy.hpp"
#include "perfmodel/framework.hpp"
#include "perfmodel/gpu_spec.hpp"
#include "perfmodel/multi_gpu.hpp"
#include "perfmodel/simulator.hpp"

// Validation.
#include "validation/compare.hpp"
#include "validation/cross_backend.hpp"
#include "validation/residual_analysis.hpp"

// Utilities commonly used alongside the API.
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
