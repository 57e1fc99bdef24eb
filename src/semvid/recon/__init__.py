"""Dynamic 3D Gaussian scene reconstruction: the packed scene model (one
array per Gaussian attribute, shared motion bases, pinhole cameras), the
software rasterizer, and the fitting loop."""

from .fit import FitDivergenceError, FitResult, Tracks2D, fit_scene
from .render import RenderResult, render
from .scene import Camera, GaussianScene, load_scene, save_scene

__all__ = [
    "FitDivergenceError", "FitResult", "Tracks2D", "fit_scene",
    "RenderResult", "render",
    "Camera", "GaussianScene", "load_scene", "save_scene",
]
