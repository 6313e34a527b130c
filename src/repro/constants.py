"""Physical constants and reference parameter values used throughout the paper.

All values are taken directly from the text of Roychowdhury et al. (SC '23)
or from the references it cites; each constant notes its provenance.  SI units
unless stated otherwise (viscosities are kept in centipoise, cP, because the
paper quotes them that way; 1 cP = 1e-3 Pa*s).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Fluid properties (Section 3.2 / 3.3 of the paper)
# ---------------------------------------------------------------------------

#: Dynamic viscosity of blood plasma [cP] (Fung 2013, cited as Ref. [22]).
PLASMA_VISCOSITY_CP = 1.2

#: Dynamic viscosity of whole blood modeled as a bulk Newtonian fluid [cP]
#: (Section 3.3 uses 4 cP for the coarse / bulk region).
WHOLE_BLOOD_VISCOSITY_CP = 4.0

#: Mass density of blood plasma [kg/m^3]; whole blood is within a few percent.
BLOOD_DENSITY = 1025.0

#: Viscosity contrast between the window (plasma) and bulk (whole blood)
#: fluids, lambda = nu_f / nu_c.  The paper's verification sweeps
#: {1/2, 1/3, 1/4}; the physical value used in applications is 1.2/4 = 0.3.
PHYSIOLOGICAL_LAMBDA = PLASMA_VISCOSITY_CP / WHOLE_BLOOD_VISCOSITY_CP

# ---------------------------------------------------------------------------
# Cell mechanical properties
# ---------------------------------------------------------------------------

#: Healthy RBC membrane shear elastic modulus [N/m] (Skalak et al. 1973,
#: cited as Ref. [24]; Section 3.2 uses 5e-6 N/m).
RBC_SHEAR_MODULUS = 5.0e-6

#: CTC membrane shear elastic modulus [N/m]; Section 3.3 uses 1e-4 N/m,
#: representative of the increased stiffness of tumor cells vs RBCs.
CTC_SHEAR_MODULUS = 1.0e-4

#: Skalak area-preservation constant C (dimensionless).  The paper does not
#: print its value; C >> 1 enforces local area incompressibility and C ~ 100
#: is the common HARVEY/HemoCell-family choice for RBCs.
SKALAK_C = 100.0

#: Membrane bending modulus [J]; standard RBC value ~ 2e-19 J (Helfrich-type
#: models; entering Eq. 3 of the paper).
RBC_BENDING_MODULUS = 2.0e-19

#: Undeformed RBC effective diameter [m] (biconcave discocyte, ~7.8 um).
RBC_DIAMETER = 7.8e-6

#: RBC volume [m^3] (~94 fL for a healthy erythrocyte).
RBC_VOLUME = 94.0e-18

#: CTC diameter [m]; circulating tumor cells are ~12-25 um, the paper's
#: renders are consistent with ~15 um.
CTC_DIAMETER = 15.0e-6

# ---------------------------------------------------------------------------
# Hematology (Section 1, Section 3.2)
# ---------------------------------------------------------------------------

#: Systemic hematocrit of healthy human blood (45% by volume, Section 1).
SYSTEMIC_HEMATOCRIT = 0.45

#: Total blood volume of an average adult [m^3] (5 liters, Section 1).
TOTAL_BLOOD_VOLUME = 5.0e-3

#: Total number of RBCs in the average human body (Section 1).
TOTAL_RBC_COUNT = 25.0e12

# ---------------------------------------------------------------------------
# Memory model constants (Section 3.6 / Table 3)
# ---------------------------------------------------------------------------

#: Lower-bound memory footprint per fluid lattice point [bytes] (Section 3.6).
BYTES_PER_FLUID_POINT = 408

#: Memory footprint per RBC [bytes] (Section 3.6: 51 kB for a mesh produced
#: by 3 subdivision steps of an icosahedron -> 1280 elements, 642 vertices).
BYTES_PER_RBC = 51 * 1024

#: Vertex count of the paper's RBC surface mesh (3 icosahedral subdivisions).
RBC_MESH_VERTICES = 642

#: Element (triangle) count of the paper's RBC surface mesh.
RBC_MESH_ELEMENTS = 1280

# ---------------------------------------------------------------------------
# Lattice Boltzmann constants
# ---------------------------------------------------------------------------

#: Lattice speed of sound squared for the D3Q19 stencil (cs = 1/sqrt(3)).
CS2 = 1.0 / 3.0

CP_TO_PA_S = 1.0e-3

# ---------------------------------------------------------------------------
# Method constants (numerical choices of this reproduction, not the paper's)
# ---------------------------------------------------------------------------

#: Range [m] of the short-range membrane repulsion (cell-cell contact and
#: cell-wall alike) and of the overlap test that rejects inserted cells.
#: The APR window uses it throughout; the fully resolved eFSI reference
#: passes 0.4 um instead (``repro.experiments.expanding_channel``).
OVERLAP_CUTOFF = 0.5e-6

#: Peak force [N] of that repulsion at zero separation, between cells
#: (``repro.fsi.contact``) and from walls (``repro.fsi.walls``): both use
#: the same force law, ``F(d) = k (1 - d / d_c)``.
REPULSION_STIFFNESS = 2.0e-10
