// Umbrella header: the library's public surface in one include.
//
//   #include "qosbb.h"
//
// Fine-grained headers remain available (and are what the library itself
// uses); this is the convenience entry point for applications.

#ifndef QOSBB_QOSBB_H_
#define QOSBB_QOSBB_H_

// Control plane — the bandwidth broker and its extensions.
#include "core/broker.h"
#include "core/hierarchical.h"
#include "core/interdomain.h"
#include "core/wire.h"

// Data-plane abstraction and packet-level validation harness.
#include "vtrs/delay_bounds.h"
#include "vtrs/provisioned_network.h"

// Topologies and traffic.
#include "topo/builders.h"
#include "topo/fig8.h"
#include "traffic/profile.h"
#include "traffic/source.h"

// Baselines and simulation drivers.
#include "flowsim/blocking.h"
#include "flowsim/flow_sim.h"
#include "gs/gs_admission.h"
#include "gs/soft_state.h"

#endif  // QOSBB_QOSBB_H_
