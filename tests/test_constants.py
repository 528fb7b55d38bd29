from vacuumpairs.constants import CODATA


def test_hbar_c_is_197_327_mev_fm():
    # CODATA 2018: hbar*c = 197.326 980 4 MeV fm; it sets every reduced
    # Compton length hbar*c/(mc^2).
    hbar_c_mev_m = CODATA.hbar_j_s * CODATA.c_m_per_s / CODATA.mev_to_j
    assert abs(hbar_c_mev_m / 197.3269804e-15 - 1.0) < 1e-9


def test_h_c_is_1239_842_mev_fm():
    # CODATA 2018: h*c = 1239.841 984 MeV fm; the box modes' lattice step is
    # h*c/(2L).
    assert abs(CODATA.h_c_mev_m / 1239.841984e-15 - 1.0) < 1e-9


def test_derived_constants_are_the_exact_floats():
    # h/(2*pi), 1/137.035999, 1e6*q_e and h*c/(1e6*q_e), each formed once.
    assert CODATA.hbar_j_s == 1.0545718176461565e-34
    assert CODATA.alpha_target == 0.007297352573756914
    assert CODATA.mev_to_j == 1.6021766339999998e-13
    assert CODATA.h_c_mev_m == 1.2398419843320027e-12
