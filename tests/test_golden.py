"""Golden digests: stdout followed by the --report bytes.

The digests of passing `all` runs were recorded before the tensor kernels
were rewritten to walk stored components only; every later change to the
kernels must keep these bytes.  Keys name a catalog entry, a file of
docs/conformance/valid, or a gl(n) problem from conftest.gl_problem, never a
path.

The digests of failing single commands were recorded before integer
coefficients replaced integral Fractions in the polynomial core.  They pin
the text a passing run never prints: nonzero residuals, rational ones among
them, and their sample values.  The digests of refusals (a bialgebra that
fails Jacobi, a non-Poisson pi under a map, an action that does not preserve
omega) were recorded while the lifted checks still refused by raising.  The
digests under a rational box (``--box=-1/3,5/7``, ``--box=-7/2,9/4``) were
recorded while sampling still evaluated every point as a Fraction.  The
level-set digests (a failing, an informative and a two-component passing
``hamiltonian`` run) were recorded while the tangency check still ran
Fraction RREF and a kernel basis at every sample.  The digests of ``all`` on
the cubic variants of ``conftest.QUADRATIC``, whose ``oracle-fd`` reads a
nonzero relative error, were recorded while central differences still
evaluated ``Fraction`` points.  The digests of ``verify-lemma`` under a
wrong complete-lift kernel (doubled, negated) were recorded while each probe
of the lemma still built two dense coordinate maps on T*TM.  The digests of
``certify-pgmap`` on bialgebras failing a structure check (a non-cocycle, a
non-co-Jacobi and a non-Jacobi one) were recorded while the bracket was
still stored as one dense coefficient vector per pair.  The gl(4) digests
(``all`` clean and on the perturbed map), whose tangent and lift-identity
universes have 32 and 64 variables, were recorded while printing and the
identity's v -> qdot renaming still expanded every monomial key into a dense
exponent tuple.

``lift``, ``verify-lift`` and ``all`` on a non-Poisson bivector raised
before they refused; their digests were recorded with the refusal, so the
test also pins their exit code and verdicts.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from poissonlift.cli import main
from poissonlift.report import parse_reports

from conftest import CUBIC_EDITS, QUADRATIC, gl_problem, use_wrong_lift_kernel

VALID = Path(__file__).resolve().parent.parent / "docs" / "conformance" / "valid"

FLAGS = {
    "default": [],
    "samples-7-seed-3": ["--samples", "7", "--seed", "3"],
    "rational-box-samples-13": ["--box=-1/3,5/7", "--samples", "13"],
    "wide-box-seed-5": ["--box=-7/2,9/4", "--seed", "5"],
}

DIGESTS = {
    ("catalog:aff1-cobracket", "default"): "6a5a287038fd65887abba559018d56e0e732b83624a99bd570fd2ad9c546c293",
    ("catalog:aff1-cobracket", "samples-7-seed-3"): "6a5a287038fd65887abba559018d56e0e732b83624a99bd570fd2ad9c546c293",
    ("catalog:canonical-r2-rotation", "default"): "b9169a409db8b7c75513df6f2eebfd63a2033e7fea1a7a081c4b630f5c0c279e",
    ("catalog:canonical-r2-rotation", "samples-7-seed-3"): "b9169a409db8b7c75513df6f2eebfd63a2033e7fea1a7a081c4b630f5c0c279e",
    ("catalog:dressing-linearized", "default"): "de1329eb92cb4215e83b075a9dfc0653353bdb8f4238c4857ef46a1c26628377",
    ("catalog:dressing-linearized", "samples-7-seed-3"): "de1329eb92cb4215e83b075a9dfc0653353bdb8f4238c4857ef46a1c26628377",
    ("catalog:hamiltonian-level-set", "default"): "366b22c53610e388b1c387d11ad176e9e1bcaa4cc5e5f931199ba1bd5526c7e7",
    ("catalog:hamiltonian-level-set", "samples-7-seed-3"): "366b22c53610e388b1c387d11ad176e9e1bcaa4cc5e5f931199ba1bd5526c7e7",
    ("catalog:so3-coadjoint", "default"): "b683e98a69a0c5f9039e66eabd8e6412a318f3edadb17788c9279119a5668a79",
    ("catalog:so3-coadjoint", "samples-7-seed-3"): "b683e98a69a0c5f9039e66eabd8e6412a318f3edadb17788c9279119a5668a79",
    ("valid:bracket-both-orders.pf", "default"): "27e9861f3eb7fa126761552a0d0039033ba9ad7aa9b29d14c59fe02022ef3758",
    ("valid:bracket-both-orders.pf", "samples-7-seed-3"): "27e9861f3eb7fa126761552a0d0039033ba9ad7aa9b29d14c59fe02022ef3758",
    ("valid:full-blocks.pf", "default"): "6a5a287038fd65887abba559018d56e0e732b83624a99bd570fd2ad9c546c293",
    ("valid:full-blocks.pf", "samples-7-seed-3"): "6a5a287038fd65887abba559018d56e0e732b83624a99bd570fd2ad9c546c293",
    ("valid:minimal-poisson.pf", "default"): "e1e9a417a646812c8fdb7dec6c188a578a00334cfc1b40acdb3786c42aebdfcd",
    ("valid:minimal-poisson.pf", "samples-7-seed-3"): "e1e9a417a646812c8fdb7dec6c188a578a00334cfc1b40acdb3786c42aebdfcd",
    ("valid:momentum-levelset.pf", "default"): "366b22c53610e388b1c387d11ad176e9e1bcaa4cc5e5f931199ba1bd5526c7e7",
    ("valid:momentum-levelset.pf", "samples-7-seed-3"): "366b22c53610e388b1c387d11ad176e9e1bcaa4cc5e5f931199ba1bd5526c7e7",
    ("valid:one-line-blocks.pf", "default"): "27e9861f3eb7fa126761552a0d0039033ba9ad7aa9b29d14c59fe02022ef3758",
    ("valid:one-line-blocks.pf", "samples-7-seed-3"): "27e9861f3eb7fa126761552a0d0039033ba9ad7aa9b29d14c59fe02022ef3758",
    ("valid:symplectic-inline.pf", "default"): "3b07c77270eb516d8db3eab81a93055466d2acee19d5e60b599f7ec83f83e77c",
    ("valid:symplectic-inline.pf", "samples-7-seed-3"): "3b07c77270eb516d8db3eab81a93055466d2acee19d5e60b599f7ec83f83e77c",
    ("valid:symplectic-supplied-inverse.pf", "default"): "5becef94a6bda346ead97c2338ff9f7566d1fde5523e15a5c4226deda44f1ea6",
    ("valid:symplectic-supplied-inverse.pf", "samples-7-seed-3"): "5becef94a6bda346ead97c2338ff9f7566d1fde5523e15a5c4226deda44f1ea6",
    ("gl2", "default"): "4732729283d567331299706f5fed25764fabb3e9072c283086831697e2667de2",
    ("gl2", "samples-7-seed-3"): "4732729283d567331299706f5fed25764fabb3e9072c283086831697e2667de2",
    ("gl3", "default"): "c654a719628034cd81f711b4335bc382eeb117b383eece99b46213c37cc5d9b2",
    ("gl3", "samples-7-seed-3"): "c654a719628034cd81f711b4335bc382eeb117b383eece99b46213c37cc5d9b2",
    ("gl4", "default"): "857d5fd9c9797ac18d31b948ac430bbb81e8e80928f9f382ab7ba2f88a41b151",
}


# (command, problem, flags) -> digest; every run exits 1
FAILING_DIGESTS = {
    ("all", "gl4-perturbed", "default"): "15e03053f27c866a806b25f79c8ca8c374247527c98c402264f79f6f928b33b0",
    ("bracket-closure", "gl2-perturbed", "default"): "bb84699f57a669e3bac30f21975b6f455086cd10be0b6c6fa16a69a881668836",
    ("bracket-closure", "gl2-perturbed", "samples-7-seed-3"): "bb84699f57a669e3bac30f21975b6f455086cd10be0b6c6fa16a69a881668836",
    ("bracket-closure", "gl3-perturbed", "default"): "0fd29283859539baf1d16ba74f6e8403342472d4d8a90d0245b4925b0b356488",
    ("bracket-closure", "gl3-perturbed", "samples-7-seed-3"): "0fd29283859539baf1d16ba74f6e8403342472d4d8a90d0245b4925b0b356488",
    ("bracket-closure", "non-poisson-map", "default"): "a5e22b60ad85ad20436bffd713d4b58c6b5f1cf08f346b2bdbf5e799bf9fe3f3",
    ("bracket-closure", "non-poisson-map", "samples-7-seed-3"): "a5e22b60ad85ad20436bffd713d4b58c6b5f1cf08f346b2bdbf5e799bf9fe3f3",
    ("bracket-closure", "so3-bad-bialgebra", "default"): "c4827dcd2d42ab682715e6a9e1f338d5181c0a0126c4ae8044d7e8a69290858e",
    ("bracket-closure", "so3-bad-bialgebra", "samples-7-seed-3"): "c4827dcd2d42ab682715e6a9e1f338d5181c0a0126c4ae8044d7e8a69290858e",
    ("certify-pgmap", "gl2-perturbed", "default"): "a382cdaba387f6fbe9ac210c640ffec4878074644ef31b677d0c2a308b379de7",
    ("certify-pgmap", "gl2-perturbed", "rational-box-samples-13"): "378d25fedade6de424ff9ff11e1fe82069e5b478904c0cedd8969ee7faa75595",
    ("certify-pgmap", "gl2-perturbed", "samples-7-seed-3"): "3203ed1e908913925cc8ce3c3c3f1718033096b7485c046d47108c291d42df7c",
    ("certify-pgmap", "gl2-perturbed", "wide-box-seed-5"): "77258c5d68af5d91dee7593e6efb106f424c6e4b8c2c3d320e1053b389bc3ba6",
    ("certify-pgmap", "gl3-perturbed", "default"): "2880e7cfc5cc69e0be0c4fed4ad5eb6e3afd82cc08653d7c72987fd9bb30d4e9",
    ("certify-pgmap", "gl3-perturbed", "rational-box-samples-13"): "39f0a6f94940cd391da9b7611055246864b52738d2a07ccc15852d645852959f",
    ("certify-pgmap", "gl3-perturbed", "samples-7-seed-3"): "fc119624f2f2368bfaef77403e106c930c8bbe70a6b365c047c0703ffd9604bd",
    ("certify-pgmap", "gl3-perturbed", "wide-box-seed-5"): "739749d6298beb7fab4be04ab07d611f38416f313c6077f031ddc35bc607cab4",
    ("certify-pgmap", "non-jacobi-rows-out-of-order", "default"): "74a26a3fbfa2a653931f430b7859a3b99bda023cb37878f4d2006caa853cd8f8",
    ("certify-pgmap", "so3-bad-bialgebra", "default"): "9beae4f5109c9a5b3586d3215350f02dc522f244592208f351e463c46a3af7c8",
    ("certify-pgmap", "so3-bad-bialgebra", "samples-7-seed-3"): "9beae4f5109c9a5b3586d3215350f02dc522f244592208f351e463c46a3af7c8",
    ("certify-pgmap", "so3-non-cocycle", "default"): "4296005a9eeaab93907d121d109153a63d2b11f1e0bcf23149562c048390a864",
    ("certify-pgmap", "zero-bracket-non-cojacobi", "default"): "3c28d0fd356e2df8b7bc7b24fa743458fa3981d0c36ae8197e0d401b3b0ad2fc",
    ("characteristic-identity", "gl2-perturbed", "default"): "cc4eedaf019f05605e19c59ee96a6396aa5a6a3d5ee5e1e9bffd9cd8b3b235a2",
    ("characteristic-identity", "gl2-perturbed", "rational-box-samples-13"): "cc4eedaf019f05605e19c59ee96a6396aa5a6a3d5ee5e1e9bffd9cd8b3b235a2",
    ("characteristic-identity", "gl2-perturbed", "samples-7-seed-3"): "cc4eedaf019f05605e19c59ee96a6396aa5a6a3d5ee5e1e9bffd9cd8b3b235a2",
    ("characteristic-identity", "gl2-perturbed", "wide-box-seed-5"): "cc4eedaf019f05605e19c59ee96a6396aa5a6a3d5ee5e1e9bffd9cd8b3b235a2",
    ("characteristic-identity", "gl3-perturbed", "default"): "a23cee038b5b509fe1aa7dd21097dd63630cc98c5c3d27ff4e8ffffb9c99a895",
    ("characteristic-identity", "gl3-perturbed", "rational-box-samples-13"): "a23cee038b5b509fe1aa7dd21097dd63630cc98c5c3d27ff4e8ffffb9c99a895",
    ("characteristic-identity", "gl3-perturbed", "samples-7-seed-3"): "a23cee038b5b509fe1aa7dd21097dd63630cc98c5c3d27ff4e8ffffb9c99a895",
    ("characteristic-identity", "gl3-perturbed", "wide-box-seed-5"): "a23cee038b5b509fe1aa7dd21097dd63630cc98c5c3d27ff4e8ffffb9c99a895",
    ("check-poisson", "gl3-non-poisson", "default"): "2276d9f4a0331e9c66748981b7ea88e334045e7d72fc5d2b855d5ebd4bba2dec",
    ("check-poisson", "gl3-non-poisson", "rational-box-samples-13"): "301a1d998b9dc7e8b3f914646632b5fc6649b7369b6beabec617386a4fd70624",
    ("check-poisson", "gl3-non-poisson", "samples-7-seed-3"): "8172885872d4208b21e4e84f7db6d5255c03634ded9a41385ad4d926a2a55a92",
    ("check-poisson", "gl3-non-poisson", "wide-box-seed-5"): "98b5a7616af8a602828812b35a6ab9d8619b0e6ae9b9b214c8de2664c11c3472",
    ("check-poisson", "rational-residual", "default"): "68083eeca1f01723b2be39e5d09cf32b3e327b1d96829bf4d96a24bb9fcec03a",
    ("check-poisson", "rational-residual", "samples-7-seed-3"): "4bf67cf463efa0121af27b75752dd32c77de727bc7b56a9efff1d0c51c495c7c",
    ("symplectic", "non-symplectic-action", "default"): "963b3b8674b6a7d7ae4c2a6529bd45c3f3e2a54bac41e947e3c99c8f64635f00",
    ("symplectic", "non-symplectic-action", "samples-7-seed-3"): "963b3b8674b6a7d7ae4c2a6529bd45c3f3e2a54bac41e947e3c99c8f64635f00",
    ("tangent-generator", "gl2-perturbed", "default"): "9314de3bed830bcdfa43b51b4a279941b87bdeffc7aa8e048d83c50ce1949f95",
    ("tangent-generator", "gl2-perturbed", "samples-7-seed-3"): "9314de3bed830bcdfa43b51b4a279941b87bdeffc7aa8e048d83c50ce1949f95",
    ("tangent-generator", "gl3-perturbed", "default"): "be400124efcae4d5b8c704b2e6145f99fd33ea26da03d4a7bb4ea00663b95899",
    ("tangent-generator", "gl3-perturbed", "samples-7-seed-3"): "be400124efcae4d5b8c704b2e6145f99fd33ea26da03d4a7bb4ea00663b95899",
}

_REFUSED = ("fail", "fail", "fail", "pass", "pass")  # check-poisson, lift, verify-lift, lemma, oracle-fd

# (command, problem, flags) -> (verdicts, digest); every run exits 1
NON_POISSON_DIGESTS = {
    ("lift", "gl3-non-poisson", "default"): (("fail",), "ae9be80b777289dcb6b1998103605a05c90f6c840749537da324169a6863e5c0"),
    ("lift", "gl3-non-poisson", "samples-7-seed-3"): (("fail",), "ae9be80b777289dcb6b1998103605a05c90f6c840749537da324169a6863e5c0"),
    ("lift", "xy-yz-non-poisson", "default"): (("fail",), "ae9be80b777289dcb6b1998103605a05c90f6c840749537da324169a6863e5c0"),
    ("lift", "xy-yz-non-poisson", "samples-7-seed-3"): (("fail",), "ae9be80b777289dcb6b1998103605a05c90f6c840749537da324169a6863e5c0"),
    ("verify-lift", "gl3-non-poisson", "default"): (("fail",), "3823552fba83b160e99ab5253747673335fd0ae7b87ccf42010bacdf8f30b068"),
    ("verify-lift", "gl3-non-poisson", "samples-7-seed-3"): (("fail",), "3823552fba83b160e99ab5253747673335fd0ae7b87ccf42010bacdf8f30b068"),
    ("verify-lift", "xy-yz-non-poisson", "default"): (("fail",), "3823552fba83b160e99ab5253747673335fd0ae7b87ccf42010bacdf8f30b068"),
    ("verify-lift", "xy-yz-non-poisson", "samples-7-seed-3"): (("fail",), "3823552fba83b160e99ab5253747673335fd0ae7b87ccf42010bacdf8f30b068"),
    ("all", "gl3-non-poisson", "default"): (_REFUSED, "d86cd571513abc6085b7767fb663a793dcec6f715e18c4d5b376439a4a964abd"),
    ("all", "gl3-non-poisson", "samples-7-seed-3"): (_REFUSED, "9838af183668e0b315e986281ec6e09c3585b20d3c5808d51e76571b1e3122b3"),
    ("all", "xy-yz-non-poisson", "default"): (_REFUSED, "8cc3391e5a5fc4f160bc81d25f7549b8fcbee8d8cae57e56fd44a0baae006c9d"),
    ("all", "xy-yz-non-poisson", "samples-7-seed-3"): (_REFUSED, "f4d622f3c256025cccdb0521004cd4277ecb5686b099c41ef47cff7ab1aa308d"),
}

# (command, problem, flags) -> (exit code, digest): level-set tangency runs
# that do not pass, and one with two momentum components
LEVEL_SET_DIGESTS = {
    ("hamiltonian", "kernel-not-spanned", "default"): (1, "d2659a4b55ddf7557abb0002f00ed629d15e032d5f6ed42948f5d8e2533cf4de"),
    ("hamiltonian", "kernel-not-spanned", "rational-box-samples-13"): (1, "1543876c57de3c010a9e3d37819b5fea6761975c597b16d42369682c6ab83c41"),
    ("hamiltonian", "rank-deficient", "default"): (0, "f742c5ce4442d1c888b0cbdadd1610146d66c87195d95ec07f9db31803bb5927"),
    ("hamiltonian", "rank-deficient", "rational-box-samples-13"): (0, "570958956af8fd23b5a616cee5c68390285b0247e05ceff3f3534d1689c098cc"),
    ("hamiltonian", "two-J", "default"): (0, "08064a8cc159cd567e3f82e300f8752d80221c2e7da9a2e48a92ebe223f9a7e3"),
    ("hamiltonian", "two-J", "rational-box-samples-13"): (0, "08064a8cc159cd567e3f82e300f8752d80221c2e7da9a2e48a92ebe223f9a7e3"),
}

# (command, problem, flags) -> (exit code, digest): runs whose oracle-fd fails
ORACLE_FD_DIGESTS = {
    ("all", "cubic-momentum", "default"): (1, "7014d4523a7ab1569b3c79a156fc8aa6670398caaa020e8a12efd5fb749802ad"),
    ("all", "cubic-momentum", "rational-box-samples-13"): (1, "0c551f3308a84d0343d7538da2686842e6385f32a909ccf71bfd1da70773dd46"),
    ("all", "cubic-pgmap", "default"): (1, "ca52ae6a24553823b15d5ea429bccc3bdb10fc13c1c213546d65ceaf596dd2ad"),
    ("all", "cubic-pgmap", "rational-box-samples-13"): (1, "aa11318faa20af9ee31b5e93e49c3cc24486e250b73970e21efcaa18944af3fa"),
    ("all", "cubic-poisson", "default"): (1, "3d2f17453bc603d4c4b55dd23eeba4fc5d6b5b8fbad03ca10dc4c7f36067ab4c"),
    ("all", "cubic-poisson", "rational-box-samples-13"): (1, "bf47a6a47dbaa8c15e676cb87c2169e12c86a03eeaf706f796202d55cb5d0fea"),
}

# (kernel, problem) -> (exit code, digest): ``verify-lemma`` under a wrong
# complete-lift kernel (conftest.use_wrong_lift_kernel)
LEMMA_DIGESTS = {
    ("doubled", "catalog:aff1-cobracket"): (1, "9cc772fb95f5329f51d271b5531c59991e217793f57d419aeed76379ed7a59bc"),
    ("doubled", "catalog:so3-coadjoint"): (1, "607513969cd6289419ab5ae16b3cddf5578e84e17d5156e942a6ba4db7ff4c0f"),
    ("doubled", "gl3"): (1, "c8f48c1138e391c2363ab4fe16442260e6b958bcf141803ed53e0d7a2846a1f7"),
    ("negated", "catalog:aff1-cobracket"): (1, "f869d1b4d2e9cbee2bb1f03b006e947570d7a075265addedf6b6001099e45538"),
    ("negated", "catalog:so3-coadjoint"): (1, "6d496d573adc372f6839d34745d1dd467d288c18d6d08b628b50d7f99b316e72"),
    ("negated", "gl3"): (1, "987fbd23171a0cf268c285bfa09ecd942fccf6ecaa7324259627d500d28717f3"),
}

_LEVEL_SET_AT_ORIGIN = "levelset {\n  params: s\n  map: 0, 0\n}\n"
_SO3_MANIFOLD = "manifold {\n  coords: x, y, z\n  poisson: z*e_x^e_y - y*e_x^e_z + x*e_y^e_z\n}\n"
_SO3_PGMAP = "pgmap { e1 = dx; e2 = dy; e3 = dz }\n"

# problems of FAILING_DIGESTS, NON_POISSON_DIGESTS, LEVEL_SET_DIGESTS and
# ORACLE_FD_DIGESTS that are not gl(n) problems
TEXTS = {
    "xy-yz-non-poisson": "manifold {\n  coords: x, y, z\n  poisson: x*e_x^e_y + y*e_y^e_z\n}\n",
    "rational-residual": "manifold {\n  coords: x, y, z\n  poisson: 1/2*x*e_x^e_y + 1/3*y*e_y^e_z\n}\n",
    # refusals: a bialgebra failing Jacobi, a non-Poisson pi, a non-symplectic action
    "so3-bad-bialgebra": (
        _SO3_MANIFOLD + "bialgebra {\n  basis: e1, e2, e3\n  bracket { [e1,e2] = e3; [e1,e3] = e1 }\n}\n"
        + _SO3_PGMAP
    ),
    # failing structure checks: four cocycle residuals in insertion order and
    # a co-Jacobi failure; a zero bracket with a cobracket that fails
    # co-Jacobi; bracket rows out of basis order that fail Jacobi
    "so3-non-cocycle": (
        _SO3_MANIFOLD + "bialgebra {\n  basis: e1, e2, e3\n"
        "  bracket { [e2,e3] = e1; [e1,e2] = e3; [e3,e1] = e2 }\n"
        "  cocycle { d(e2) = e3^e1; d(e1) = e1^e2 + e3^e2 }\n}\n" + _SO3_PGMAP
    ),
    "zero-bracket-non-cojacobi": (
        _SO3_MANIFOLD + "bialgebra {\n  basis: e1, e2, e3\n"
        "  cocycle { d(e3) = e1^e2; d(e1) = e1^e3 }\n}\n" + _SO3_PGMAP
    ),
    "non-jacobi-rows-out-of-order": (
        _SO3_MANIFOLD + "bialgebra {\n  basis: e1, e2, e3\n"
        "  bracket { [e1,e2] = e3 + e1 - e2; [e1,e3] = 2 e3 + e2 }\n}\n" + _SO3_PGMAP
    ),
    "non-poisson-map": (
        "manifold {\n  coords: x, y, z\n  poisson: z*e_x^e_y + x*e_x^e_z\n}\n"
        "bialgebra {\n  basis: e1, e2, e3\n  bracket { [e1,e2] = e3; [e2,e3] = e1; [e3,e1] = e2 }\n}\n"
        "pgmap { e1 = dx; e2 = dy; e3 = dz }\n"
    ),
    "non-symplectic-action": (
        "manifold { coords: q, p; symplectic: dq^dp }\nbialgebra { basis: e1 }\naction { e1 = q*e_q }\n"
    ),
    # dJ = dp has kernel e_q, which a constant map does not span: fail
    "kernel-not-spanned": (
        "manifold {\n  coords: q, p\n  poisson: e_q^e_p\n}\nbialgebra { basis: e1 }\n"
        "momentum { e1 = p }\n" + _LEVEL_SET_AT_ORIGIN
    ),
    # dJ vanishes at the origin: informative
    "rank-deficient": (
        "manifold {\n  coords: q, p\n  poisson: e_q^e_p\n}\nbialgebra { basis: e1 }\n"
        "momentum { e1 = 1/2*q^2 + 1/2*p^2 }\n" + _LEVEL_SET_AT_ORIGIN
    ),
    # two components with rational values and a non-affine map: pass
    "two-J": (
        "manifold {\n  coords: a, b, c, d\n  poisson: e_a^e_c + e_b^e_d\n}\n"
        "bialgebra { basis: e1, e2 }\nmomentum { e1 = c - 1/3; e2 = d*(a + 1) }\n"
        "levelset {\n  params: s, t\n  map: s^2 - t, 2/5*t, 1/3, 0\n}\n"
    ),
    **{f"cubic-{name}": QUADRATIC.replace(old, new) for name, (old, new) in CUBIC_EDITS.items()},
}


def _problem_arg(key: str, tmp_path: Path) -> str:
    kind, _, name = key.partition(":")
    if kind == "catalog":
        return name
    if kind == "valid":
        return str(VALID / name)
    if key in TEXTS:
        text = TEXTS[key]
    else:
        n, _, variant = key[2:].partition("-")
        text = gl_problem(int(n), non_poisson=variant == "non-poisson", perturb_map=variant == "perturbed")
    path = tmp_path / f"{key}.pf"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(args: list[str], key: str, flags: str, tmp_path: Path, capsys) -> tuple[int, str, bytes]:
    report = tmp_path / "report.txt"
    code = main([*args, _problem_arg(key, tmp_path), "--report", str(report), *FLAGS[flags]])
    return code, capsys.readouterr().out, report.read_bytes()


def _digest(args: list[str], key: str, flags: str, tmp_path: Path, capsys) -> tuple[int, str]:
    code, stdout, report = _run(args, key, flags, tmp_path, capsys)
    return code, hashlib.sha256(stdout.encode("utf-8") + report).hexdigest()


@pytest.mark.parametrize("key,flags", sorted(DIGESTS))
def test_all_output_matches_recorded_digest(key, flags, tmp_path, capsys):
    assert _digest(["all"], key, flags, tmp_path, capsys) == (0, DIGESTS[(key, flags)])


@pytest.mark.parametrize("command,key,flags", sorted(FAILING_DIGESTS))
def test_failing_output_matches_recorded_digest(command, key, flags, tmp_path, capsys):
    assert _digest([command], key, flags, tmp_path, capsys) == (1, FAILING_DIGESTS[(command, key, flags)])


@pytest.mark.parametrize("command,key,flags", sorted(NON_POISSON_DIGESTS))
def test_non_poisson_output_matches_recorded_digest(command, key, flags, tmp_path, capsys):
    verdicts, digest = NON_POISSON_DIGESTS[(command, key, flags)]
    code, stdout, report = _run([command], key, flags, tmp_path, capsys)
    assert code == 1
    assert tuple(rep.verdict for rep in parse_reports(report.decode("utf-8"))) == verdicts
    assert "Traceback" not in stdout
    assert hashlib.sha256(stdout.encode("utf-8") + report).hexdigest() == digest


@pytest.mark.parametrize("command,key,flags", sorted(LEVEL_SET_DIGESTS))
def test_level_set_output_matches_recorded_digest(command, key, flags, tmp_path, capsys):
    assert _digest([command], key, flags, tmp_path, capsys) == LEVEL_SET_DIGESTS[(command, key, flags)]


@pytest.mark.parametrize("command,key,flags", sorted(ORACLE_FD_DIGESTS))
def test_oracle_fd_output_matches_recorded_digest(command, key, flags, tmp_path, capsys):
    assert _digest([command], key, flags, tmp_path, capsys) == ORACLE_FD_DIGESTS[(command, key, flags)]


@pytest.mark.parametrize("kernel,key", sorted(LEMMA_DIGESTS))
def test_failing_lemma_output_matches_recorded_digest(kernel, key, tmp_path, capsys, monkeypatch):
    use_wrong_lift_kernel(monkeypatch, kernel)
    assert _digest(["verify-lemma"], key, "default", tmp_path, capsys) == LEMMA_DIGESTS[(kernel, key)]


def test_digests_cover_every_valid_file():
    names = {key.partition(":")[2] for key, _ in DIGESTS if key.startswith("valid:")}
    assert names == {path.name for path in VALID.glob("*.pf")}
